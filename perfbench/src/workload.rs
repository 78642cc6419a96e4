//! The benchmark's workloads: how each read set is generated from a seed
//! and which pipeline configuration runs it.
//!
//! All three workloads hold about 1.4 Mb of input, so `bases_per_s`
//! compares across them. README.md says why each one exists.

use dibella_align::SimdMode;
use dibella_core::{PipelineConfig, SeedMode};
use dibella_datagen::{
    ecoli_30x_like, simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec, SyntheticDataset,
    ECOLI_GENOME,
};
use dibella_overlap::OverlapEngine;

/// World size of every run: one rank per core of a 2-core host.
pub const RANKS: usize = 2;
/// Executor threads per rank (`RANKS × THREADS` must not exceed `nproc`).
pub const THREADS: usize = 1;

/// The HiFi workloads sample every seed's reads from one genome: the one
/// the E. coli presets build for seed 1. With a genome per seed, 7 of 22
/// seeds measured drew genomes whose 17-mers occurring at two places
/// survive the multiplicity filter; their false pairs extend through
/// unrelated sequence and multiplied the run's DP cells by up to 3.6×, so
/// the figures would measure which genome a seed drew (README.md, "Why
/// the HiFi genome is fixed"). `align.false_pair_cells_frac` keeps that
/// cost measured.
const HIFI_GENOME_SEED: u64 = 1 ^ 0x9E37_79B9;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own data: PacBio-CLR-like reads at 15% error, 30×.
    Clr30,
    /// HiFi-like reads at 1% error, 20×, through the default code paths.
    Hifi20,
    /// The `Hifi20` reads through the minimizer / SpGEMM / streaming paths.
    Hifi20Sketch,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "clr30" => Some(Self::Clr30),
            "hifi20" => Some(Self::Hifi20),
            "hifi20-sketch" => Some(Self::Hifi20Sketch),
            _ => None,
        }
    }

    /// Generate the workload's reads (with ground truth) from `seed`.
    pub fn dataset(self, seed: u64) -> SyntheticDataset {
        match self {
            Self::Clr30 => ecoli_30x_like(0.01, seed),
            Self::Hifi20 | Self::Hifi20Sketch => {
                let genome = GenomeSpec {
                    size: (ECOLI_GENOME as f64 * 0.015) as usize,
                    repeat_fraction: 0.03,
                    repeat_unit_len: 700,
                    repeat_families: 5,
                    seed: HIFI_GENOME_SEED,
                }
                .generate();
                simulate_reads(
                    &genome,
                    &ReadSimSpec {
                        depth: 20.0,
                        mean_len: 12_000,
                        len_sigma: 0.2,
                        min_len: 1_000,
                        errors: ErrorModel::pacbio(0.01),
                        seed,
                    },
                )
            }
        }
    }

    /// The pipeline configuration the workload runs with.
    pub fn config(self) -> PipelineConfig {
        let base = PipelineConfig {
            k: 17,
            threads: Some(THREADS),
            simd: Some(SimdMode::Auto),
            ..Default::default()
        };
        match self {
            Self::Clr30 => PipelineConfig {
                depth: 30.0,
                error_rate: 0.15,
                ..base
            },
            Self::Hifi20 => PipelineConfig {
                depth: 20.0,
                error_rate: 0.01,
                ..base
            },
            Self::Hifi20Sketch => PipelineConfig {
                depth: 20.0,
                error_rate: 0.01,
                seed_mode: SeedMode::Minimizer,
                overlap_engine: OverlapEngine::Spgemm,
                max_exchange_bytes_per_round: 4 << 20,
                ..base
            },
        }
    }
}
