//! # dibella-bench
//!
//! The harness that regenerates every table and figure of the diBELLA
//! paper (see DESIGN.md §6 for the experiment index). Each `src/bin/`
//! binary prints one figure's series as a tab-separated table; this
//! library holds the shared machinery: workload construction, pipeline
//! execution at one-rank-per-modeled-core world sizes, memoization, and
//! metric extraction.
//!
//! Pipeline knobs come from the environment through the one table in
//! `dibella_core::config::KNOBS` (`DIBELLA_THREADS`, `DIBELLA_TRANSPORT`,
//! `DIBELLA_ROUND_MB`, `DIBELLA_SIMD`, `DIBELLA_SEED_MODE`, …), resolved
//! once per run by [`config_for`] over the workload's shape. Every one of
//! them leaves alignments and logical counters bit-identical except the
//! seed mode; the rest only move wall time, memory or modeled exchange.
//!
//! Two settings belong to the harness alone: `DIBELLA_SCALE` (E. coli
//! 30×-like genome scale, default 0.01 ≈ 46 kb) and `DIBELLA_SCALE_100X`
//! (100×-like, default 0.006). `scale = 1.0` reproduces paper-sized
//! inputs. A bad value of any setting ends the run with an `error:` line.

#![warn(missing_docs)]

use dibella_core::{run_pipeline, PipelineConfig, RankReport};
use dibella_datagen::{ecoli_100x_like, ecoli_30x_like, ecoli_30x_sample_like, SyntheticDataset};
use dibella_io::ReadPartition;
use dibella_kcount::{KcountConfig, KmerHashTable, Occurrence};
use dibella_kmer::{Kmer1, Strand};
use dibella_netmodel::{NodeMapping, Platform, Series};
use dibella_overlap::SeedPolicy;
use std::collections::HashMap;
use std::str::FromStr;
use std::sync::Arc;

/// Node counts of every strong-scaling figure (x-axis of Figs. 3–13).
pub const NODE_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The paper's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// E. coli 30× (PacBio P5-C3-like).
    E30,
    /// E. coli 100× (PacBio P4-C2-like).
    E100,
    /// The Table-2 "sample" slice of E. coli 30×.
    E30Sample,
}

impl Workload {
    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Workload::E30 => "E.coli 30x",
            Workload::E100 => "E.coli 100x",
            Workload::E30Sample => "E.coli 30x (sample)",
        }
    }

    /// (depth, error-rate) the pipeline config assumes for this workload.
    pub fn shape(self) -> (f64, f64) {
        match self {
            Workload::E30 | Workload::E30Sample => (30.0, 0.15),
            Workload::E100 => (100.0, 0.14),
        }
    }
}

/// End the run with an `error:` line naming a bad setting.
fn fail(msg: String) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// A harness-only numeric setting from the environment: `default` when
/// unset; a value that is not a positive number ends the run.
pub fn env_setting<T: FromStr + PartialOrd + Default>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|x| *x > T::default())
            .unwrap_or_else(|| fail(format!("{var} {v:?}: expected a positive number"))),
    }
}

/// Deterministic synthetic k-mer table (plus an even read partition over
/// `ranks` owners) for the SpGEMM accumulator benches: `n_kmers` random
/// k-mers, each occurring 2–8 times across `n_reads` reads. The
/// `spgemm_rows_per_sec` Criterion group and the `bench_kernels_json`
/// baseline writer share this fixture so both measure the same workload.
pub fn spgemm_fixture(n_reads: u32, n_kmers: usize, ranks: usize, seed: u64) -> (KmerHashTable, ReadPartition) {
    const K: usize = 17;
    let kc = KcountConfig {
        k: K,
        max_multiplicity: 64,
        bloom_fp_rate: 0.05,
        expected_distinct: n_kmers.max(16) as u64,
        max_kmers_per_round: 1 << 20,
        max_exchange_bytes_per_round: usize::MAX,
        extract_batch: 16,
    };
    let mut state = seed | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut table = KmerHashTable::with_capacity(n_kmers);
    for _ in 0..n_kmers {
        let ascii: Vec<u8> = (0..K).map(|_| b"ACGT"[(rnd() % 4) as usize]).collect();
        let km = Kmer1::from_ascii(&ascii).expect("fixture k-mer");
        table.insert_key(km);
        for _ in 0..(2 + rnd() % 7) {
            let strand = if rnd() % 2 == 0 { Strand::Forward } else { Strand::Reverse };
            let occ = Occurrence { read: (rnd() % n_reads as u64) as u32, pos: (rnd() % 10_000) as u32, strand };
            // Random k-mers may collide (incl. reverse-complement hits);
            // the multiplicity cap then legitimately drops occurrences.
            let _ = table.record_occurrence(&km, occ, &kc);
        }
    }
    let per = (n_reads as usize).div_ceil(ranks);
    let counts: Vec<usize> = (0..ranks)
        .map(|r| per.min((n_reads as usize).saturating_sub(r * per)))
        .collect();
    (table, ReadPartition::from_counts(&counts))
}

/// Construct a workload's synthetic dataset at the bench scale.
pub fn dataset(w: Workload) -> SyntheticDataset {
    match w {
        Workload::E30 => ecoli_30x_like(env_setting("DIBELLA_SCALE", 0.01), 42),
        Workload::E100 => ecoli_100x_like(env_setting("DIBELLA_SCALE_100X", 0.006), 42),
        Workload::E30Sample => ecoli_30x_sample_like(env_setting("DIBELLA_SCALE", 0.01), 42),
    }
}

/// Pipeline configuration for a workload and seed policy, with the
/// environment's pipeline knobs applied; a bad knob value ends the run.
/// The per-pair seed cap is 4 at bench scale: the scaled genome makes
/// average true overlaps long relative to reads, so uncapped `d = k`
/// exploration would inflate intensity beyond the paper's regime.
pub fn config_for(w: Workload, policy: SeedPolicy) -> PipelineConfig {
    config_with(w, policy, |var| std::env::var(var).ok()).unwrap_or_else(|e| fail(e))
}

/// [`config_for`] over an explicit environment lookup.
pub fn config_with(
    w: Workload,
    policy: SeedPolicy,
    env: impl Fn(&str) -> Option<String>,
) -> Result<PipelineConfig, String> {
    let (depth, error_rate) = w.shape();
    let base = PipelineConfig {
        k: 17,
        depth,
        error_rate,
        seed_policy: policy,
        max_seeds_per_pair: 4,
        ..Default::default()
    };
    PipelineConfig::resolve(base, &HashMap::new(), env)
}

/// Memoizing pipeline runner: one full SPMD execution per distinct
/// `(workload, policy, ranks)`, shared by all platform projections.
#[derive(Default)]
pub struct ReportCache {
    datasets: HashMap<Workload, Arc<SyntheticDataset>>,
    runs: HashMap<(Workload, SeedPolicy, usize), Arc<Vec<RankReport>>>,
}

impl ReportCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The (cached) dataset for a workload.
    pub fn dataset(&mut self, w: Workload) -> Arc<SyntheticDataset> {
        Arc::clone(
            self.datasets
                .entry(w)
                .or_insert_with(|| Arc::new(dataset(w))),
        )
    }

    /// Per-rank reports of a pipeline run with `ranks` ranks.
    pub fn reports(&mut self, w: Workload, policy: SeedPolicy, ranks: usize) -> Arc<Vec<RankReport>> {
        if let Some(r) = self.runs.get(&(w, policy, ranks)) {
            return Arc::clone(r);
        }
        let ds = self.dataset(w);
        let cfg = config_for(w, policy);
        eprintln!("[bench] running {} {policy:?} P={ranks} ...", w.name());
        let res = run_pipeline(&ds.reads, ranks, &cfg);
        let arc = Arc::new(res.reports);
        self.runs.insert((w, policy, ranks), Arc::clone(&arc));
        arc
    }
}

/// Total k-mer instances processed (the rate unit of Figs. 3 and 5).
pub fn total_kmers(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.bloom.kmers_received).sum()
}

/// Total retained k-mers (rate unit of Fig. 6).
pub fn total_retained(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.filter.retained).sum()
}

/// Total alignments computed (rate unit of Figs. 7 and 13).
pub fn total_alignments(reports: &[RankReport]) -> u64 {
    reports.iter().map(|r| r.align.alignments).sum()
}

/// Build one figure series per platform: for each node count, run the
/// pipeline with `nodes × cores_per_node(platform)` ranks, project the
/// run onto the platform, and apply `metric` to (reports, projection,
/// nodes).
pub fn platform_series<F>(
    cache: &mut ReportCache,
    w: Workload,
    policy: SeedPolicy,
    mut metric: F,
) -> Vec<Series>
where
    F: FnMut(&[RankReport], &dibella_core::PipelineProjection, usize) -> f64,
{
    let mut out = Vec::new();
    for platform in Platform::all() {
        let mut points = Vec::new();
        for &nodes in &NODE_COUNTS {
            let mapping = NodeMapping::for_platform(platform, nodes);
            let reports = cache.reports(w, policy, mapping.ranks());
            let proj = dibella_core::project(platform, mapping, &reports);
            points.push((nodes, metric(&reports, &proj, nodes)));
        }
        out.push(Series::new(platform.name, points));
    }
    out
}

/// Print a figure header followed by the rendered series table.
pub fn print_figure(title: &str, node_counts: &[usize], series: &[Series]) {
    println!("# {title}");
    print!("{}", dibella_netmodel::render_table(node_counts, series));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibella_core::SeedMode;

    #[test]
    fn workload_shapes() {
        assert_eq!(Workload::E30.shape(), (30.0, 0.15));
        assert_eq!(Workload::E100.shape(), (100.0, 0.14));
        assert!(Workload::E30.name().contains("30x"));
    }

    #[test]
    fn config_policy_propagates() {
        let cfg = config_with(Workload::E100, SeedPolicy::MinDistance(1000), |_| None).unwrap();
        assert_eq!(cfg.depth, 100.0);
        assert_eq!(cfg.seed_policy, SeedPolicy::MinDistance(1000));
        assert_eq!(cfg.k, 17);
        assert_eq!(cfg.max_seeds_per_pair, 4);
        assert_eq!(cfg.effective_threads(), 1);
    }

    #[test]
    fn env_knobs_apply_over_the_workload_shape() {
        let env = |var: &str| match var {
            "DIBELLA_SEED_MODE" => Some("minimizer".to_owned()),
            "DIBELLA_ROUND_MB" => Some("2".to_owned()),
            _ => None,
        };
        let cfg = config_with(Workload::E30, SeedPolicy::Single, env).unwrap();
        assert_eq!(cfg.seed_mode, SeedMode::Minimizer);
        assert_eq!(cfg.max_exchange_bytes_per_round, 2 << 20);
        assert_eq!((cfg.depth, cfg.error_rate), Workload::E30.shape());
        let bad = |var: &str| (var == "DIBELLA_THREADS").then(|| "four".to_owned());
        let err = config_with(Workload::E30, SeedPolicy::Single, bad).unwrap_err();
        assert!(err.starts_with("DIBELLA_THREADS"), "{err}");
    }

    #[test]
    fn cache_memoizes() {
        // Tiny world over a tiny sample: the second call must not re-run
        // (identity of the Arc proves it).
        let mut cache = ReportCache::new();
        cache
            .datasets
            .insert(Workload::E30Sample, Arc::new(ecoli_30x_sample_like(0.002, 42)));
        let a = cache.reports(Workload::E30Sample, SeedPolicy::Single, 2);
        let b = cache.reports(Workload::E30Sample, SeedPolicy::Single, 2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2);
    }
}
