//! End-to-end pipeline configuration, and [`KNOBS`]: the one table of
//! command-line flags and environment variables that set it. Binaries
//! resolve a config once with [`PipelineConfig::resolve`], handing in the
//! environment lookup; the pipeline crates never read the environment.

use dibella_align::{Scoring, SimdMode};
use dibella_comm::TransportKind;
use dibella_kcount::KcountConfig;
use dibella_kmer::params;
use dibella_overlap::{ChainConfig, OverlapConfig, OverlapEngine, SeedPolicy, TaskPlacement};
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

/// Which seed source feeds the overlap stage (the pipeline's front end).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SeedMode {
    /// The paper's reliable-k-mer front end: a distributed Bloom pass
    /// eliminates singletons, then a full hash pass attaches occurrence
    /// lists — every k-mer instance crosses the wire twice (8 + 20
    /// bytes).
    #[default]
    Reliable,
    /// Minimizer-sketch front end (minimap-style): one pass exchanges
    /// only (w, k) window-minimum k-mers (~`2/(w+1)` of instances, 20
    /// bytes each), and candidate pairs are colinear-chained before
    /// alignment. Traffic shrinks several-fold; recall on genuine
    /// overlaps stays within a few percent (see `tests/seed_modes.rs`).
    Minimizer,
}

impl FromStr for SeedMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "reliable" => Ok(SeedMode::Reliable),
            "minimizer" => Ok(SeedMode::Minimizer),
            other => Err(format!("unknown seed mode {other:?} (expected reliable|minimizer)")),
        }
    }
}

impl fmt::Display for SeedMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedMode::Reliable => "reliable",
            SeedMode::Minimizer => "minimizer",
        })
    }
}

/// Configuration of the full four-stage pipeline.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// k-mer length (≤ 32; the paper's typical value is 17).
    pub k: usize,
    /// Assumed per-base error rate of the data (drives `m`).
    pub error_rate: f64,
    /// Assumed depth of coverage (drives `m`).
    pub depth: f64,
    /// Override the derived high-occurrence threshold `m`.
    pub max_multiplicity: Option<u32>,
    /// Seed source for the overlap stage: the paper's reliable-k-mer
    /// passes, or the minimizer sketch.
    pub seed_mode: SeedMode,
    /// Minimizer window width `w` (number of consecutive k-mer windows a
    /// selected k-mer must win; only used under
    /// [`SeedMode::Minimizer`]). Expected sketch density is
    /// `2/(w + 1)`.
    pub minimizer_w: usize,
    /// Minimum colinear-chain length for a minimizer-mode candidate pair
    /// to survive into alignment (only used under
    /// [`SeedMode::Minimizer`]).
    pub min_chain_seeds: usize,
    /// Seed exploration policy (one-seed / min-distance; paper §5).
    pub seed_policy: SeedPolicy,
    /// Cap on seeds explored per pair.
    pub max_seeds_per_pair: usize,
    /// Overlap-stage exchange engine: the paper's per-seed `pairs` records, or
    /// the source-deduplicating `spgemm` reformulation. Bit-identical
    /// alignments either way.
    pub overlap_engine: OverlapEngine,
    /// Pair indices per executor batch in the `pairs` engine.
    pub pair_batch: usize,
    /// Rows per SpGEMM block in the `spgemm` engine.
    pub spgemm_block: usize,
    /// x-drop termination parameter `X` of the alignment kernel.
    pub xdrop: i32,
    /// Alignment scoring scheme.
    pub scoring: Scoring,
    /// Alignments scoring below this are dropped from the output (the
    /// per-seed alignment is still *computed* — cost is unchanged).
    pub min_align_score: i32,
    /// Streaming cap per rank and round in the k-mer passes.
    pub max_kmers_per_round: usize,
    /// Byte cap per rank and exchange round, across **all four stages**
    /// (`usize::MAX` = unbounded). Every stage streams its irregular
    /// exchange through the `RoundExchange` engine in rounds of at most
    /// this many send bytes (plus at most one record of slack — records
    /// never split across rounds), packing each round while the previous
    /// one is in flight. Results are bit-identical at every setting; only
    /// memory footprint and comm/compute overlap change.
    pub max_exchange_bytes_per_round: usize,
    /// Bloom filter false-positive target.
    pub bloom_fp_rate: f64,
    /// When set, run a distributed HyperLogLog pre-pass of this precision
    /// to size the Bloom filter instead of the Eq.-2 estimate (paper §6:
    /// HipMer's fallback for extremely large / repetitive genomes).
    pub hll_precision: Option<u8>,
    /// Alignment-task placement: the paper's parity heuristic, or the §9
    /// future-work longer-read placement that minimizes read movement.
    pub placement: TaskPlacement,
    /// Intra-rank threads for **all four stages** (hybrid parallelism,
    /// paper §9 / diBELLA 2D lineage): `1` = sequential, `0` = one thread
    /// per hardware core, `n` = exactly `n` threads. `None` (the default)
    /// runs sequentially. Every stage shards its work into fixed-size
    /// batches on the shared `BatchedExecutor` and merges in batch order,
    /// so results are bit-identical for every value.
    pub threads: Option<usize>,
    /// Communication backend the SPMD world runs on: `SharedMem` (the
    /// default) executes collectives through real shared memory;
    /// `SimNet(platform, ranks_per_node)` runs the same byte-identical
    /// exchanges but reports the `exchange_wall` a modeled interconnect
    /// (virtual Cori, Edison, Titan or AWS) would have charged.
    pub transport: TransportKind,
    /// Alignment-kernel implementation for stage 4, pinned for every
    /// worker thread; `None` (the default) means [`SimdMode::Auto`], the
    /// lane-SIMD kernels. Scalar and SIMD kernels are bit-identical, so
    /// this only moves throughput.
    pub simd: Option<SimdMode>,
    /// When set (`--checkpoint-dir`), each rank serializes its completed
    /// stage outputs (reliable/minimizer k-mer table after stage 2, the
    /// overlap task list after stage 3) into this directory through the
    /// `Wire` codec, and a fresh run over the same inputs resumes from
    /// the last completed stage bit-identically instead of recomputing —
    /// the recovery path a rank that exhausted its exchange retries
    /// points at. `None` (the default) neither reads nor writes
    /// checkpoints.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            k: 17,
            error_rate: 0.15,
            depth: 30.0,
            max_multiplicity: None,
            seed_mode: SeedMode::Reliable,
            minimizer_w: 7,
            min_chain_seeds: 2,
            seed_policy: SeedPolicy::Single,
            max_seeds_per_pair: 16,
            overlap_engine: OverlapEngine::Pairs,
            pair_batch: OverlapConfig::DEFAULT_PAIR_BATCH,
            spgemm_block: OverlapConfig::DEFAULT_SPGEMM_BLOCK,
            xdrop: 25,
            scoring: Scoring::bella(),
            min_align_score: 0,
            max_kmers_per_round: 1 << 20,
            max_exchange_bytes_per_round: usize::MAX,
            bloom_fp_rate: 0.05,
            hll_precision: None,
            placement: TaskPlacement::Parity,
            threads: None,
            transport: TransportKind::SharedMem,
            simd: None,
            checkpoint_dir: None,
        }
    }
}

impl PipelineConfig {
    /// The effective high-occurrence threshold: the override if set, else
    /// BELLA's Poisson-derived value for (depth, error, k).
    pub fn multiplicity_threshold(&self) -> u32 {
        self.max_multiplicity.unwrap_or_else(|| {
            params::reliable_max_multiplicity(
                self.depth,
                self.error_rate,
                self.k,
                params::defaults::EPSILON,
            )
        })
    }

    /// Derive the k-mer-analysis configuration for a given input size.
    pub fn kcount(&self, total_bases: u64) -> KcountConfig {
        let mut kc = KcountConfig::from_dataset(total_bases.max(1), self.depth, self.error_rate, self.k);
        kc.max_multiplicity = self.multiplicity_threshold();
        kc.bloom_fp_rate = self.bloom_fp_rate;
        kc.max_kmers_per_round = self.max_kmers_per_round;
        kc.max_exchange_bytes_per_round = self.max_exchange_bytes_per_round;
        kc
    }

    /// The intra-rank thread count every stage actually runs with:
    /// `threads` (default 1), with `0` resolved to the hardware
    /// parallelism.
    pub fn effective_threads(&self) -> usize {
        match self.threads.unwrap_or(1) {
            0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            n => n,
        }
    }

    /// Resolve a configuration from command-line flags and environment
    /// variables over `base`, one [`KNOBS`] row at a time and in table
    /// order: a row's flag beats its env variable, which beats `base`.
    /// `flags` maps flag names without dashes (`"k"`, `"round-mb"`) to
    /// values; `env` looks a variable up. Flags that name no row are
    /// ignored here (the caller owns its own flags). The error names the
    /// flag or variable and its value.
    pub fn resolve(
        base: PipelineConfig,
        flags: &HashMap<String, String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<PipelineConfig, String> {
        let mut cfg = base;
        for knob in KNOBS {
            let flag = knob.flags.iter().find_map(|f| Some((dashed(f), flags.get(*f)?.clone())));
            let given = flag.or_else(|| knob.env.and_then(|e| Some((e.to_owned(), env(e)?))));
            if let Some((source, value)) = given {
                (knob.apply)(&mut cfg, value.trim())
                    .map_err(|e| format!("{source} {value:?}: {e}"))?;
            }
        }
        Ok(cfg)
    }

    /// Derive the overlap-stage configuration. The chain filter is
    /// enabled exactly when the minimizer front end feeds the stage.
    pub fn overlap(&self) -> OverlapConfig {
        OverlapConfig {
            policy: self.seed_policy,
            max_seeds_per_pair: self.max_seeds_per_pair,
            placement: self.placement,
            max_exchange_bytes_per_round: self.max_exchange_bytes_per_round,
            pair_batch: self.pair_batch,
            chain: match self.seed_mode {
                SeedMode::Reliable => None,
                SeedMode::Minimizer => {
                    Some(ChainConfig { min_chain_seeds: self.min_chain_seeds })
                }
            },
            engine: self.overlap_engine,
            spgemm_block: self.spgemm_block,
        }
    }
}

/// One configuration knob: its spellings and the parser that sets it.
pub struct Knob {
    /// Flag names without dashes; one letter is spelled `-x`, longer
    /// names `--name`.
    pub flags: &'static [&'static str],
    /// The environment variable that sets the knob, if any.
    pub env: Option<&'static str>,
    /// Value placeholder, two spaces, then a one-line description.
    pub help: &'static str,
    /// Parse a (trimmed) value into the config, range-checking it.
    pub apply: fn(&mut PipelineConfig, &str) -> Result<(), String>,
}

impl Knob {
    /// The knob's usage line: spellings, placeholder, description, env.
    pub fn usage(&self) -> String {
        let names: Vec<String> = self.flags.iter().map(|f| dashed(f)).collect();
        let (meta, text) = self.help.split_once("  ").unwrap_or(("", self.help));
        let env = self.env.map(|e| format!(" [env {e}]")).unwrap_or_default();
        format!("{:<31} {text}{env}", format!("{} {meta}", names.join("|")))
    }
}

fn dashed(flag: &str) -> String {
    if flag.len() == 1 {
        format!("-{flag}")
    } else {
        format!("--{flag}")
    }
}

fn num<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// Every pipeline knob settable from a command line or the environment.
/// [`PipelineConfig::resolve`] applies the rows in this order, so a row
/// may read a field an earlier row set (`--policy k` reads `k`).
pub const KNOBS: &[Knob] = &[
    Knob {
        flags: &["k"],
        env: None,
        help: "K  k-mer length, 4..=32 (default 17)",
        // One 64-bit word packs at most 32 bases.
        apply: |c, v| {
            c.k = num(v)
                .filter(|k| (4..=32).contains(k))
                .ok_or("expected a k-mer length in 4..=32")?;
            Ok(())
        },
    },
    Knob {
        flags: &["e"],
        env: None,
        help: "ERR  assumed per-base error rate, in [0, 1) (default 0.15; drives m)",
        apply: |c, v| {
            c.error_rate = num(v)
                .filter(|e| (0.0..1.0).contains(e))
                .ok_or("expected an error rate in [0, 1)")?;
            Ok(())
        },
    },
    Knob {
        flags: &["d"],
        env: None,
        help: "DEPTH  assumed depth of coverage, > 0 (default 30; drives m)",
        apply: |c, v| {
            c.depth = num(v)
                .filter(|&d: &f64| d > 0.0 && d.is_finite())
                .ok_or("expected a positive depth")?;
            Ok(())
        },
    },
    Knob {
        flags: &["threads", "t"],
        env: Some("DIBELLA_THREADS"),
        help: "N  intra-rank threads of every stage, 0 = one per core (default 1)",
        apply: |c, v| {
            c.threads = Some(num(v).ok_or("expected a thread count")?);
            Ok(())
        },
    },
    Knob {
        flags: &["transport"],
        env: Some("DIBELLA_TRANSPORT"),
        help: "KIND  shared | sim:<platform>[:<ranks_per_node>] | faulty:<inner>[:<seed>[:<spec>]]",
        apply: |c, v| {
            c.transport = v.parse()?;
            Ok(())
        },
    },
    Knob {
        flags: &["round-mb"],
        env: Some("DIBELLA_ROUND_MB"),
        help: "MB  exchange-round byte cap per rank, in MiB (default unbounded)",
        apply: |c, v| {
            c.max_exchange_bytes_per_round = num(v)
                .filter(|&mb: &f64| mb > 0.0)
                .map(|mb| (mb * (1u64 << 20) as f64) as usize)
                .filter(|&bytes| bytes > 0)
                .ok_or("expected a positive MiB count of at least one byte")?;
            Ok(())
        },
    },
    Knob {
        flags: &["checkpoint-dir"],
        env: None,
        help: "DIR  save stage outputs here and resume from the last completed stage",
        apply: |c, v| {
            c.checkpoint_dir = Some(v.into());
            Ok(())
        },
    },
    Knob {
        flags: &["policy"],
        env: None,
        help: "one|1000|k  seed exploration policy (default one)",
        apply: |c, v| {
            c.seed_policy = match v {
                "one" => SeedPolicy::Single,
                "1000" => SeedPolicy::MinDistance(1000),
                "k" => SeedPolicy::MinDistance(c.k as u32),
                _ => return Err("expected one|1000|k".into()),
            };
            Ok(())
        },
    },
    Knob {
        flags: &["seed-mode"],
        env: Some("DIBELLA_SEED_MODE"),
        help: "reliable|minimizer  seed front end (default reliable)",
        apply: |c, v| {
            c.seed_mode = v.parse()?;
            Ok(())
        },
    },
    Knob {
        flags: &["minimizer-w"],
        env: None,
        help: "W  minimizer window width, >= 1 (default 7)",
        apply: |c, v| {
            c.minimizer_w = num(v)
                .filter(|&w| w >= 1)
                .ok_or("expected a window width >= 1")?;
            Ok(())
        },
    },
    Knob {
        flags: &["overlap-engine"],
        env: Some("DIBELLA_OVERLAP_ENGINE"),
        help: "pairs|spgemm  overlap exchange engine (default pairs)",
        apply: |c, v| {
            c.overlap_engine = v.parse()?;
            Ok(())
        },
    },
    Knob {
        flags: &["pair-batch"],
        env: Some("DIBELLA_PAIR_BATCH"),
        help: "N  pair indices per executor batch of the pairs engine",
        apply: |c, v| {
            c.pair_batch = num(v).ok_or("expected a batch size")?;
            Ok(())
        },
    },
    Knob {
        flags: &["spgemm-block"],
        env: Some("DIBELLA_SPGEMM_BLOCK"),
        help: "ROWS  rows per block of the spgemm engine",
        apply: |c, v| {
            c.spgemm_block = num(v).ok_or("expected a row count")?;
            Ok(())
        },
    },
    Knob {
        flags: &["x"],
        env: None,
        help: "XDROP  x-drop threshold, > 0 (default 25)",
        apply: |c, v| {
            c.xdrop = num(v)
                .filter(|&x| x > 0)
                .ok_or("expected a positive x-drop")?;
            Ok(())
        },
    },
    Knob {
        flags: &["min-score"],
        env: None,
        help: "S  drop alignments scoring below S (default 0)",
        apply: |c, v| {
            c.min_align_score = num(v).ok_or("expected an integer score")?;
            Ok(())
        },
    },
    Knob {
        flags: &["simd"],
        env: Some("DIBELLA_SIMD"),
        help: "scalar|auto  alignment kernels (default auto; identical output)",
        apply: |c, v| {
            c.simd = Some(v.parse()?);
            Ok(())
        },
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.k, 17);
        assert_eq!(cfg.seed_policy, SeedPolicy::Single);
        assert_eq!(cfg.transport, TransportKind::SharedMem);
        assert!(cfg.xdrop > 0);
        // Derived m is the BELLA Poisson threshold.
        let m = cfg.multiplicity_threshold();
        assert!((2..=12).contains(&m), "m = {m}");
    }

    #[test]
    fn override_wins() {
        let cfg = PipelineConfig { max_multiplicity: Some(77), ..Default::default() };
        assert_eq!(cfg.multiplicity_threshold(), 77);
        assert_eq!(cfg.kcount(1_000_000).max_multiplicity, 77);
    }

    #[test]
    fn kcount_inherits_knobs() {
        let cfg = PipelineConfig { max_kmers_per_round: 4096, bloom_fp_rate: 0.2, ..Default::default() };
        let kc = cfg.kcount(1_000_000);
        assert_eq!(kc.max_kmers_per_round, 4096);
        assert_eq!(kc.bloom_fp_rate, 0.2);
        assert_eq!(kc.k, 17);
    }

    #[test]
    fn round_byte_cap_reaches_every_stage_config() {
        // Default: unbounded everywhere.
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.max_exchange_bytes_per_round, usize::MAX);
        assert_eq!(cfg.kcount(1_000).max_exchange_bytes_per_round, usize::MAX);
        assert_eq!(cfg.overlap().max_exchange_bytes_per_round, usize::MAX);
        // A cap flows into both derived configs (stage 4 reads it off the
        // PipelineConfig directly).
        let capped = PipelineConfig { max_exchange_bytes_per_round: 1 << 20, ..Default::default() };
        assert_eq!(capped.kcount(1_000).max_exchange_bytes_per_round, 1 << 20);
        assert_eq!(capped.overlap().max_exchange_bytes_per_round, 1 << 20);
    }

    #[test]
    fn simd_knob_defaults_to_auto() {
        // None = the lane-SIMD kernels (SimdMode::Auto) on every thread.
        assert_eq!(PipelineConfig::default().simd, None);
        let cfg = PipelineConfig { simd: Some(SimdMode::Scalar), ..Default::default() };
        assert_eq!(cfg.simd, Some(SimdMode::Scalar));
    }

    #[test]
    fn seed_mode_parses_and_wires_the_chain() {
        assert_eq!("reliable".parse::<SeedMode>().unwrap(), SeedMode::Reliable);
        assert_eq!("Minimizer".parse::<SeedMode>().unwrap(), SeedMode::Minimizer);
        assert!("bloom".parse::<SeedMode>().is_err());
        assert_eq!(SeedMode::Minimizer.to_string(), "minimizer");
        // Reliable mode: no chain filter. Minimizer mode: chain on, with
        // the configured minimum.
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.seed_mode, SeedMode::Reliable);
        assert!(cfg.overlap().chain.is_none());
        let cfg = PipelineConfig {
            seed_mode: SeedMode::Minimizer,
            min_chain_seeds: 3,
            ..Default::default()
        };
        assert_eq!(cfg.overlap().chain, Some(ChainConfig { min_chain_seeds: 3 }));
        assert_eq!(cfg.minimizer_w, 7);
    }

    #[test]
    fn overlap_engine_knobs_reach_the_stage_config() {
        let cfg = PipelineConfig::default();
        assert_eq!(cfg.overlap_engine, OverlapEngine::Pairs);
        assert_eq!(cfg.overlap().engine, OverlapEngine::Pairs);
        assert_eq!(cfg.overlap().pair_batch, OverlapConfig::DEFAULT_PAIR_BATCH);
        assert_eq!(cfg.overlap().spgemm_block, OverlapConfig::DEFAULT_SPGEMM_BLOCK);
        let cfg = PipelineConfig {
            overlap_engine: OverlapEngine::Spgemm,
            pair_batch: 17,
            spgemm_block: 5,
            ..Default::default()
        };
        let oc = cfg.overlap();
        assert_eq!(oc.engine, OverlapEngine::Spgemm);
        assert_eq!(oc.pair_batch, 17);
        assert_eq!(oc.spgemm_block, 5);
    }

    #[test]
    fn threads_knob_resolution() {
        // Default: sequential.
        assert_eq!(PipelineConfig::default().effective_threads(), 1);
        let cfg = PipelineConfig { threads: Some(3), ..Default::default() };
        assert_eq!(cfg.effective_threads(), 3);
        // 0 means hardware parallelism.
        assert!(PipelineConfig { threads: Some(0), ..Default::default() }.effective_threads() >= 1);
    }

    fn map(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect()
    }

    fn resolve(flags: &[(&str, &str)], env: &[(&str, &str)]) -> Result<PipelineConfig, String> {
        let env = map(env);
        PipelineConfig::resolve(PipelineConfig::default(), &map(flags), |n| env.get(n).cloned())
    }

    #[test]
    fn flag_beats_env_beats_base() {
        let base = PipelineConfig { threads: Some(5), ..Default::default() };
        let env = |n: &str| (n == "DIBELLA_THREADS").then(|| "3".to_owned());
        let threads = |flags: &[(&str, &str)], env: &dyn Fn(&str) -> Option<String>| {
            PipelineConfig::resolve(base.clone(), &map(flags), env).unwrap().threads
        };
        assert_eq!(threads(&[], &|_| None), Some(5));
        assert_eq!(threads(&[], &env), Some(3));
        assert_eq!(threads(&[("threads", "2")], &env), Some(2));
        assert_eq!(threads(&[("t", "4")], &env), Some(4));
        // A flag that names no row is left to the caller.
        assert!(resolve(&[("p", "4"), ("o", "out.paf")], &[]).is_ok());
    }

    #[test]
    fn rows_apply_in_table_order() {
        let cfg = resolve(&[("policy", "k"), ("k", "21")], &[]).unwrap();
        assert_eq!(cfg.k, 21);
        assert_eq!(cfg.seed_policy, SeedPolicy::MinDistance(21));
    }

    #[test]
    fn table_spellings_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for knob in KNOBS {
            for name in knob.flags.iter().copied().chain(knob.env) {
                assert!(seen.insert(name), "{name} spelled twice");
            }
            assert!(knob.help.contains("  "), "{:?} help lacks a placeholder", knob.flags);
            assert!(knob.usage().starts_with('-'));
        }
    }

    #[test]
    fn every_env_name_parses_a_valid_value() {
        let valid = [
            ("DIBELLA_THREADS", "3"),
            ("DIBELLA_TRANSPORT", "sim:edison:4"),
            ("DIBELLA_ROUND_MB", "0.5"),
            ("DIBELLA_SEED_MODE", "minimizer"),
            ("DIBELLA_OVERLAP_ENGINE", "spgemm"),
            ("DIBELLA_PAIR_BATCH", "33"),
            ("DIBELLA_SPGEMM_BLOCK", "9"),
            ("DIBELLA_SIMD", "scalar"),
        ];
        let names: Vec<&str> = KNOBS.iter().filter_map(|k| k.env).collect();
        assert_eq!(names.len(), valid.len(), "every env row needs a case here");
        let default = format!("{:?}", PipelineConfig::default());
        for (var, value) in valid {
            assert!(names.contains(&var), "{var} is not a table row");
            let cfg = resolve(&[], &[(var, value)]).unwrap_or_else(|e| panic!("{e}"));
            assert_ne!(format!("{cfg:?}"), default, "{var}={value} changed nothing");
        }
        let cfg = resolve(&[], &valid).unwrap();
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.transport.to_string(), "sim:edison:4");
        assert_eq!(cfg.max_exchange_bytes_per_round, 1 << 19);
        assert_eq!(cfg.seed_mode, SeedMode::Minimizer);
        assert_eq!(cfg.overlap_engine, OverlapEngine::Spgemm);
        assert_eq!((cfg.pair_batch, cfg.spgemm_block), (33, 9));
        assert_eq!(cfg.simd, Some(SimdMode::Scalar));
    }

    #[test]
    fn bad_values_name_their_knob() {
        let flags = [
            ("k", "40", "-k"),
            ("k", "0", "-k"),
            ("k", "3", "-k"),
            ("minimizer-w", "0", "--minimizer-w"),
            ("x", "0", "-x"),
            ("x", "-5", "-x"),
            ("round-mb", "0.0000001", "--round-mb"),
            ("round-mb", "0", "--round-mb"),
            ("threads", "many", "--threads"),
            ("policy", "two", "--policy"),
            ("e", "1.5", "-e"),
            ("d", "0", "-d"),
        ];
        for (flag, value, spelling) in flags {
            let err = resolve(&[(flag, value)], &[]).expect_err(flag);
            assert!(err.starts_with(&format!("{spelling} ")), "{err}");
        }
        let env = [
            ("DIBELLA_ROUND_MB", "0.0000001"),
            ("DIBELLA_SEED_MODE", "foo"),
            ("DIBELLA_SIMD", "avx"),
            ("DIBELLA_TRANSPORT", "tcp"),
            ("DIBELLA_THREADS", "-1"),
        ];
        for (var, value) in env {
            let err = resolve(&[], &[(var, value)]).expect_err(var);
            assert!(err.starts_with(var), "{err}");
        }
    }
}
