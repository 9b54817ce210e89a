//! Cluster-wide performance-variable aggregation.
//!
//! Each rank publishes a flat `(name, value)` pvar snapshot through the
//! modex (the same out-of-band channel PTL modules use for addressing), and
//! any process can then gather the whole job's snapshots and reduce them
//! into a [`ClusterReport`]: per-variable min/max/sum with the owning ranks,
//! plus a straggler guess — the rank that most often holds the maximum of a
//! variable that actually spreads across the job.
//!
//! The rows are deliberately generic (`String` name, `u64` value) so this
//! crate needs no knowledge of the MPI stack's metric set; the stack side
//! lives in `openmpi-core::introspect`.

use qsim::Proc;

use crate::{JobId, ProcName, Rte};

/// Modex key under which a rank's pvar snapshot is published.
pub const PVAR_KEY: &str = "pvar";

/// Serialize pvar rows as `name value` lines (names never contain spaces).
pub fn encode_rows(rows: &[(String, u64)]) -> Vec<u8> {
    let mut out = String::new();
    for (name, value) in rows {
        debug_assert!(!name.contains([' ', '\n']), "pvar name {name:?}");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out.into_bytes()
}

/// Parse rows serialized by [`encode_rows`]. Panics on malformed input —
/// the bytes only ever come from `encode_rows` on another rank.
pub fn decode_rows(bytes: &[u8]) -> Vec<(String, u64)> {
    let text = std::str::from_utf8(bytes).expect("pvar rows are UTF-8");
    text.lines()
        .map(|line| {
            let (name, value) = line.split_once(' ').expect("pvar row has two fields");
            (name.to_string(), value.parse().expect("pvar value is u64"))
        })
        .collect()
}

/// One variable reduced across the job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PvarAgg {
    /// Variable name.
    pub name: String,
    /// Smallest value and a rank holding it.
    pub min: u64,
    /// Rank holding the minimum (lowest such rank).
    pub min_rank: usize,
    /// Largest value and a rank holding it.
    pub max: u64,
    /// Rank holding the maximum (lowest such rank).
    pub max_rank: usize,
    /// Sum over all ranks.
    pub sum: u64,
}

/// The job-wide aggregate of every rank's pvar snapshot.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Number of ranks aggregated.
    pub ranks: usize,
    /// Per-variable reductions, in first-seen variable order.
    pub vars: Vec<PvarAgg>,
    /// The rank that most often holds the maximum among variables whose
    /// values actually differ across ranks; `None` when nothing spreads.
    pub straggler: Option<usize>,
}

impl ClusterReport {
    /// Reduce per-rank rows into the cluster report. A variable missing on
    /// some rank counts as 0 there.
    pub fn build(per_rank: &[(usize, Vec<(String, u64)>)]) -> ClusterReport {
        let mut order: Vec<String> = Vec::new();
        for (_, rows) in per_rank {
            for (name, _) in rows {
                if !order.contains(name) {
                    order.push(name.clone());
                }
            }
        }
        let value_of = |rows: &[(String, u64)], name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        let mut vars = Vec::with_capacity(order.len());
        let mut max_hits: qsim::FastMap<usize, usize> = Default::default();
        for name in &order {
            let mut agg: Option<PvarAgg> = None;
            for (rank, rows) in per_rank {
                let v = value_of(rows, name);
                match &mut agg {
                    None => {
                        agg = Some(PvarAgg {
                            name: name.clone(),
                            min: v,
                            min_rank: *rank,
                            max: v,
                            max_rank: *rank,
                            sum: v,
                        })
                    }
                    Some(a) => {
                        if v < a.min {
                            a.min = v;
                            a.min_rank = *rank;
                        }
                        if v > a.max {
                            a.max = v;
                            a.max_rank = *rank;
                        }
                        a.sum += v;
                    }
                }
            }
            let a = agg.expect("at least one rank");
            if a.max > a.min {
                *max_hits.entry(a.max_rank).or_default() += 1;
            }
            vars.push(a);
        }
        // Most frequent argmax; ties go to the lowest rank for determinism.
        let straggler = max_hits
            .into_iter()
            .max_by_key(|(rank, hits)| (*hits, std::cmp::Reverse(*rank)))
            .map(|(rank, _)| rank);
        ClusterReport {
            ranks: per_rank.len(),
            vars,
            straggler,
        }
    }

    /// Aggregate for one variable, by name.
    pub fn get(&self, name: &str) -> Option<&PvarAgg> {
        self.vars.iter().find(|a| a.name == name)
    }

    /// JSON rendering of the report.
    pub fn to_json(&self) -> String {
        let vars: Vec<String> = self
            .vars
            .iter()
            .map(|a| {
                format!(
                    "{{\"name\":\"{}\",\"min\":{},\"min_rank\":{},\"max\":{},\
                     \"max_rank\":{},\"sum\":{}}}",
                    a.name, a.min, a.min_rank, a.max, a.max_rank, a.sum
                )
            })
            .collect();
        let straggler = match self.straggler {
            Some(r) => r.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"ranks\":{},\"straggler\":{},\"vars\":[{}]}}",
            self.ranks,
            straggler,
            vars.join(",")
        )
    }
}

impl Rte {
    /// Publish `who`'s pvar snapshot (one OOB message).
    pub fn pvar_publish(&self, proc: &Proc, who: ProcName, rows: &[(String, u64)]) {
        self.modex_put(proc, who, PVAR_KEY, encode_rows(rows));
    }

    /// Gather every rank's published snapshot in one OOB request, blocking
    /// (in virtual time) until all of them have published.
    pub fn pvar_collect(&self, proc: &Proc, job: JobId) -> Vec<(usize, Vec<(String, u64)>)> {
        self.modex_table(proc, job, PVAR_KEY)
            .iter()
            .enumerate()
            .map(|(rank, raw)| (rank, decode_rows(raw)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RteConfig;
    use qsim::{Local, Simulation};
    use std::rc::Rc;

    #[test]
    fn rows_roundtrip() {
        let rows = vec![
            ("pml.eager_sent".to_string(), 42u64),
            ("hist.match_time.p99_ns".to_string(), u64::MAX),
            ("queues.posted_depth".to_string(), 0),
            // Reliability-plane names travel the same generic channel.
            ("rel.retransmits".to_string(), 3),
            ("queues.ctl_inflight".to_string(), 1),
        ];
        assert_eq!(decode_rows(&encode_rows(&rows)), rows);
        assert!(decode_rows(&[]).is_empty());
    }

    #[test]
    fn reliability_pvars_aggregate_like_any_other() {
        // A rank that keeps retransmitting stands out as the straggler.
        let per_rank = vec![
            (0usize, vec![("rel.retransmits".to_string(), 0u64)]),
            (1, vec![("rel.retransmits".to_string(), 4)]),
            (2, vec![("rel.retransmits".to_string(), 0)]),
        ];
        let rep = ClusterReport::build(&per_rank);
        let r = rep.get("rel.retransmits").unwrap();
        assert_eq!((r.min, r.max, r.max_rank, r.sum), (0, 4, 1, 4));
        assert_eq!(rep.straggler, Some(1));
    }

    #[test]
    fn report_reduces_min_max_sum_and_names_straggler() {
        let per_rank = vec![
            (0usize, vec![("a".to_string(), 10u64), ("b".to_string(), 5)]),
            (1, vec![("a".to_string(), 30), ("b".to_string(), 9)]),
            (2, vec![("a".to_string(), 20), ("b".to_string(), 9)]),
        ];
        let rep = ClusterReport::build(&per_rank);
        assert_eq!(rep.ranks, 3);
        let a = rep.get("a").unwrap();
        assert_eq!(
            (a.min, a.min_rank, a.max, a.max_rank, a.sum),
            (10, 0, 30, 1, 60)
        );
        // "b" maxes at rank 1 too (ties broken to the lowest rank), so rank 1
        // holds the argmax for both spreading variables.
        assert_eq!(rep.straggler, Some(1));
        let json = rep.to_json();
        assert!(json.contains("\"straggler\":1"));
        assert!(json.contains("\"name\":\"a\""));
    }

    #[test]
    fn uniform_values_have_no_straggler() {
        let per_rank = vec![
            (0usize, vec![("a".to_string(), 7u64)]),
            (1, vec![("a".to_string(), 7)]),
        ];
        let rep = ClusterReport::build(&per_rank);
        assert_eq!(rep.straggler, None);
        assert!(rep.to_json().contains("\"straggler\":null"));
    }

    #[test]
    fn missing_variable_counts_as_zero() {
        let per_rank = vec![(0usize, vec![("a".to_string(), 4u64)]), (1, vec![])];
        let rep = ClusterReport::build(&per_rank);
        let a = rep.get("a").unwrap();
        assert_eq!((a.min, a.min_rank, a.sum), (0, 1, 4));
    }

    #[test]
    fn publish_collect_across_processes() {
        let sim = Simulation::new();
        let rte = Rte::new(RteConfig::default());
        let job = rte.create_job(2, None);
        let out = Rc::new(Local::new(None));
        for rank in 0..2usize {
            let rte = rte.clone();
            let out = out.clone();
            sim.spawn(&format!("r{rank}"), move |p| {
                let rows = vec![("x".to_string(), rank as u64 * 100)];
                rte.pvar_publish(&p, ProcName { job, rank }, &rows);
                if rank == 0 {
                    let per_rank = rte.pvar_collect(&p, job);
                    *out.lock() = Some(ClusterReport::build(&per_rank));
                }
            });
        }
        sim.run().unwrap();
        let rep = out.lock().take().unwrap();
        let x = rep.get("x").unwrap();
        assert_eq!((x.min, x.max, x.max_rank, x.sum), (0, 100, 1, 100));
        assert_eq!(rep.straggler, Some(1));
    }
}
