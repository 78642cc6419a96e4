//! `dibella` — command-line front end for the pipeline.
//!
//! ```text
//! dibella overlap <reads.fastq> [options]     find + align overlaps → PAF
//! dibella simulate [options] <out.fastq>      generate PacBio-like reads
//! dibella stats <reads.fastq>                 dataset statistics & k/m advice
//! ```
//!
//! Run `dibella <command> --help` for the options of each command.

use dibella::comm::{FaultyConfig, FaultyInner};
use dibella::datagen::{simulate_reads, ErrorModel, GenomeSpec, ReadSimSpec};
use dibella::kmer::params;
use dibella::pipeline::KNOBS;
use dibella::prelude::*;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("overlap") => cmd_overlap(&args[1..]),
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("--help") | Some("-h") | None => {
            eprintln!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Flags of `overlap` beyond the pipeline knobs of [`KNOBS`].
const OVERLAP_FLAGS: &[&str] = &["p", "o", "gfa"];
const SIMULATE_FLAGS: &[&str] = &["g", "d", "l", "e", "s"];
/// `stats` reads these pipeline knobs, with the table's checks.
const STATS_FLAGS: &[&str] = &["k", "e", "d"];

fn usage() -> String {
    let knobs: Vec<String> = KNOBS.iter().map(|k| format!("    {}", k.usage())).collect();
    format!(
        "dibella — distributed long-read overlap and alignment (ICPP 2019 reproduction)

USAGE:
  dibella overlap <reads.fastq> [-p RANKS] [-o out.paf] [--gfa out.gfa] [OPTIONS]
  dibella simulate <out.fastq> [-g GENOME_BP] [-d DEPTH] [-l MEAN_LEN]
                  [-e ERR] [-s SEED]
  dibella stats <reads.fastq> [-k K] [-e ERR] [-d DEPTH]

OVERLAP OPTIONS (a flag beats its env variable):
{}",
        knobs.join("\n")
    )
}

/// Minimal flag parser: positional args plus `-f value` / `--flag value`,
/// for the flag names `known` accepts.
struct Flags {
    positional: Vec<String>,
    named: HashMap<String, String>,
}

fn parse_flags(args: &[String], known: &dyn Fn(&str) -> bool) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut named = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-h" || a == "--help" {
            return Err(usage());
        }
        if let Some(name) = a.strip_prefix('-') {
            let name = name.trim_start_matches('-').to_owned();
            if !known(&name) {
                return Err(format!("unknown flag {a} (see --help)"));
            }
            let value = it.next().ok_or_else(|| format!("flag {a} expects a value"))?;
            named.insert(name, value.clone());
        } else {
            positional.push(a.clone());
        }
    }
    Ok(Flags { positional, named })
}

impl Flags {
    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.named.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for -{name}")),
        }
    }

    /// The pipeline config: the table's knobs from these flags and the
    /// process environment.
    fn config(&self) -> Result<PipelineConfig, String> {
        PipelineConfig::resolve(PipelineConfig::default(), &self.named, |var| std::env::var(var).ok())
    }
}

fn load_fastq(path: &str) -> Result<ReadSet, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    dibella::io::read_fastq(BufReader::new(file), 0).map_err(|e| format!("parse {path}: {e}"))
}

fn cmd_overlap(args: &[String]) -> Result<(), String> {
    let is_knob = |f: &str| KNOBS.iter().any(|k| k.flags.contains(&f));
    let flags = parse_flags(args, &|f| OVERLAP_FLAGS.contains(&f) || is_knob(f))?;
    let cfg = flags.config()?;
    if let Some(dir) = &cfg.checkpoint_dir {
        // Fail here, not as a panic inside the ranks' checkpoint store.
        std::fs::create_dir_all(dir).map_err(|e| {
            format!("--checkpoint-dir {}: cannot create directory: {e}", dir.display())
        })?;
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let ranks: usize = flags.get("p", cores)?;
    if ranks == 0 {
        return Err("-p \"0\": expected at least one rank".into());
    }
    let path = flags
        .positional
        .first()
        .ok_or("overlap: missing <reads.fastq>")?;
    let reads = load_fastq(path)?;
    if reads.is_empty() {
        return Err("no reads in input".into());
    }

    let round_bytes = cfg.max_exchange_bytes_per_round;
    let round_cap = if round_bytes == usize::MAX {
        "unbounded".to_owned()
    } else {
        format!("{:.2} MiB", round_bytes as f64 / (1 << 20) as f64)
    };
    eprintln!(
        "dibella: {} reads ({:.1} Mb), k={}, m={}, seeds {}, engine {}, {ranks} ranks x {} thread(s), transport {}, round cap {round_cap}",
        reads.len(),
        reads.total_bases() as f64 / 1e6,
        cfg.k,
        cfg.multiplicity_threshold(),
        cfg.seed_mode,
        cfg.overlap_engine,
        cfg.effective_threads(),
        cfg.transport
    );
    let t = std::time::Instant::now();
    let result = run_pipeline(&reads, ranks, &cfg);
    eprintln!(
        "dibella: {} pairs, {} alignments in {:.2?}",
        result.n_pairs(),
        result.n_alignments_computed(),
        t.elapsed()
    );
    if round_bytes != usize::MAX {
        // Streaming rounds were capped: report the realized high-water
        // mark so the memory bound is visible.
        let peak = result
            .reports
            .iter()
            .flat_map(|r| r.stage_comms().map(|c| c.peak_round_bytes))
            .max()
            .unwrap_or(0);
        eprintln!(
            "dibella: peak exchange round {peak} B on any rank (cap {round_bytes} B)"
        );
    }
    if matches!(cfg.transport, TransportKind::Faulty(_)) {
        // Chaos run: summarize what the hardened exchange layer absorbed.
        // All counters are injected-and-survived events; the run's output
        // above is bit-identical to a fault-free run regardless.
        let mut all = dibella::comm::CommStats::new(ranks);
        for r in &result.reports {
            all.merge(&r.total_comm());
        }
        eprintln!(
            "dibella: chaos survived: {} corrupt frames detected, {} frames retransmitted, {} duplicates dropped, {} wait timeouts, {:.2?} spent in recovery",
            all.frames_corrupt_detected,
            all.frames_retransmitted,
            all.duplicates_dropped,
            all.wait_timeouts,
            all.retry_wall
        );
    }
    if matches!(
        cfg.transport,
        TransportKind::SimNet(_)
            | TransportKind::Faulty(FaultyConfig { inner: FaultyInner::SimNet(_), .. })
    ) {
        // Under a simulated network the recorded exchange time is the
        // modeled platform's, not the host's — surface it.
        let slowest = result
            .reports
            .iter()
            .map(|r| r.total_exchange())
            .max()
            .unwrap_or_default();
        eprintln!(
            "dibella: modeled exchange on {}: slowest rank {:.3?}",
            cfg.transport, slowest
        );
    }

    // PAF output.
    let names = |id: ReadId| reads.reads()[id as usize].name.clone();
    let lens = |id: ReadId| reads.reads()[id as usize].len() as u32;
    let mut out: Box<dyn Write> = match flags.named.get("o") {
        Some(p) => Box::new(BufWriter::new(
            File::create(p).map_err(|e| format!("create {p}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout())),
    };
    for rec in &result.alignments {
        writeln!(out, "{}", rec.to_paf(&names, &lens)).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;

    // Optional GFA overlap graph.
    if let Some(gfa_path) = flags.named.get("gfa") {
        let graph = dibella::pipeline::OverlapGraph::from_alignments(
            reads.len(),
            &result.alignments,
            cfg.min_align_score,
        );
        let (_, components) = graph.connected_components();
        eprintln!(
            "dibella: overlap graph: {} edges, {components} components",
            graph.n_edges()
        );
        let gfa = graph.to_gfa(&names, &|id| Some(reads.reads()[id as usize].seq.clone()));
        std::fs::write(gfa_path, gfa).map_err(|e| format!("write {gfa_path}: {e}"))?;
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &|f| SIMULATE_FLAGS.contains(&f))?;
    let out_path = flags
        .positional
        .first()
        .ok_or("simulate: missing <out.fastq>")?;
    let genome_bp: usize = flags.get("g", 100_000)?;
    let depth: f64 = flags.get("d", 30.0)?;
    let mean_len: usize = flags.get("l", 10_000)?;
    let error: f64 = flags.get("e", 0.15)?;
    let seed: u64 = flags.get("s", 42)?;

    let genome = GenomeSpec { size: genome_bp, seed, ..Default::default() }.generate();
    let ds = simulate_reads(
        &genome,
        &ReadSimSpec {
            depth,
            mean_len: mean_len.min(genome_bp / 2),
            min_len: (mean_len / 10).max(100),
            errors: ErrorModel::pacbio(error),
            seed: seed ^ 0x0D1B_E11A,
            ..Default::default()
        },
    );
    let file = File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
    dibella::io::write_fastq(BufWriter::new(file), &ds.reads).map_err(|e| e.to_string())?;
    eprintln!(
        "dibella: wrote {} reads ({:.1} Mb, {:.1}x of {genome_bp} bp) to {out_path}",
        ds.reads.len(),
        ds.reads.total_bases() as f64 / 1e6,
        ds.realized_depth()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args, &|f| STATS_FLAGS.contains(&f))?;
    let cfg = flags.config()?;
    let (k, error) = (cfg.k, cfg.error_rate);
    let path = flags.positional.first().ok_or("stats: missing <reads.fastq>")?;
    let reads = load_fastq(path)?;

    let total = reads.total_bases();
    println!("reads:          {}", reads.len());
    println!("bases:          {total}");
    println!("mean length:    {:.0}", reads.mean_length());
    let longest = reads.iter().map(|r| r.len()).max().unwrap_or(0);
    println!("longest read:   {longest}");
    println!("k-mer bag (~):  {total}  (Eq. 2: ≈ G·d)");
    if flags.named.contains_key("d") {
        let depth = cfg.depth;
        let m = params::reliable_max_multiplicity(depth, error, k, 1e-4);
        let genome_est = total as f64 / depth;
        println!("assumed depth:  {depth}");
        println!("genome (G=N/d): {:.0}", genome_est);
        println!("reliable m:     {m}  (k={k}, e={error})");
    } else {
        println!("(pass -d DEPTH to derive the high-occurrence threshold m)");
    }
    let p_one = params::prob_shared_correct_kmer(2000, k, error);
    println!("P(shared correct {k}-mer | 2kb overlap) = {p_one:.4}");
    Ok(())
}
