//! `csm` — run continuous subgraph matching on your own data.
//!
//! ```text
//! # count triangles incrementally over a SNAP edge list + update stream
//! csm --graph web.el --updates stream.upd --query "0-1,1-2,0-2" \
//!     --engine gcsm --batch-size 512
//!
//! # no data handy? --demo generates a synthetic social graph + stream
//! csm --demo --query Q2 --engine zp
//! ```
//!
//! Formats: the graph is a whitespace edge list (`src dst` per line, `#`
//! comments); the update stream is `+ src dst` / `- src dst` lines. The
//! query is either a preset name (`Q1..Q6`, `triangle`) or a compact edge
//! list (`"0-1,1-2,0-2"`). Engines: `gcsm zp um vsgm naive cpu rf`.

use gcsm::prelude::*;
use gcsm_gpusim::Scheduling;
use gcsm_graph::{io, CsrGraph, EdgeUpdate};
use gcsm_pattern::{queries, QueryGraph};
use gcsm_shard::PartitionPolicy;

struct Args {
    graph: Option<String>,
    updates: Option<String>,
    query: String,
    engine: String,
    batch_size: usize,
    budget_frac: f64,
    unique: bool,
    demo: bool,
    collect: usize,
    stream: bool,
    producers: usize,
    preset: String,
    metrics: Option<String>,
    trace: Option<String>,
    cache_delta: bool,
    overlap: bool,
    shards: usize,
    partition: PartitionPolicy,
    schedule: Scheduling,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        graph: None,
        updates: None,
        query: "triangle".into(),
        engine: "gcsm".into(),
        batch_size: 512,
        budget_frac: 0.125,
        unique: false,
        demo: false,
        collect: 0,
        stream: false,
        producers: 4,
        preset: "social".into(),
        metrics: None,
        trace: None,
        cache_delta: false,
        overlap: false,
        shards: 1,
        partition: PartitionPolicy::HashSrc,
        schedule: Scheduling::WorkStealing,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> Result<&String, String> {
            argv.get(i + 1).ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--graph" => {
                a.graph = Some(need(i)?.clone());
                i += 1;
            }
            "--updates" => {
                a.updates = Some(need(i)?.clone());
                i += 1;
            }
            "--query" => {
                a.query = need(i)?.clone();
                i += 1;
            }
            "--engine" => {
                a.engine = need(i)?.to_lowercase();
                i += 1;
            }
            "--batch-size" => {
                a.batch_size = need(i)?.parse().map_err(|e| format!("--batch-size: {e}"))?;
                i += 1;
            }
            "--budget" => {
                a.budget_frac = need(i)?.parse().map_err(|e| format!("--budget: {e}"))?;
                i += 1;
            }
            "--unique" => a.unique = true,
            "--demo" => a.demo = true,
            "--stream" => a.stream = true,
            "--cache-delta" => a.cache_delta = true,
            "--overlap" => a.overlap = true,
            "--producers" => {
                a.producers = need(i)?.parse().map_err(|e| format!("--producers: {e}"))?;
                i += 1;
            }
            "--collect" => {
                a.collect = need(i)?.parse().map_err(|e| format!("--collect: {e}"))?;
                i += 1;
            }
            "--preset" => {
                a.preset = need(i)?.to_lowercase();
                if !matches!(a.preset.as_str(), "social" | "er") {
                    return Err(format!("--preset: unknown preset '{}' (social|er)", a.preset));
                }
                i += 1;
            }
            "--shards" => {
                a.shards = need(i)?.parse().map_err(|e| format!("--shards: {e}"))?;
                if a.shards == 0 {
                    return Err("--shards: must be at least 1".into());
                }
                i += 1;
            }
            "--partition" => {
                let v = need(i)?;
                a.partition = PartitionPolicy::parse(v).ok_or_else(|| {
                    format!("--partition: unknown policy '{v}' (hash|range|degree)")
                })?;
                i += 1;
            }
            "--schedule" => {
                let v = need(i)?;
                a.schedule = Scheduling::parse(v).ok_or_else(|| {
                    format!("--schedule: unknown policy '{v}' (static|chunked|stealing)")
                })?;
                i += 1;
            }
            "--metrics" => {
                a.metrics = Some(need(i)?.clone());
                i += 1;
            }
            "--trace" => {
                a.trace = Some(need(i)?.clone());
                i += 1;
            }
            "--help" | "-h" => {
                println!(
                    "usage: csm [--graph FILE --updates FILE | --demo [--preset social|er]] \
                     [--query NAME|SPEC] [--engine gcsm|zp|um|vsgm|naive|cpu|rf] \
                     [--batch-size N] [--budget FRAC] [--unique] [--collect K] \
                     [--cache-delta] [--overlap] [--stream [--producers N]] \
                     [--shards N [--partition hash|range|degree]] \
                     [--schedule static|chunked|stealing] \
                     [--metrics FILE.json] [--trace FILE.trace.json]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    if !a.demo && (a.graph.is_none() || a.updates.is_none()) {
        return Err("need --graph and --updates, or --demo".into());
    }
    if a.shards > 1 && a.stream {
        return Err("--shards: sharded execution drives pre-chunked batches; drop --stream".into());
    }
    if a.shards > 1 && a.collect > 0 {
        return Err("--shards: --collect is only available single-device".into());
    }
    Ok(a)
}

fn resolve_query(spec: &str) -> Result<QueryGraph, String> {
    if spec.eq_ignore_ascii_case("triangle") {
        return Ok(queries::triangle());
    }
    if let Some(q) = queries::by_name(&spec.to_uppercase()) {
        return Ok(q);
    }
    QueryGraph::parse("custom", spec)
}

fn make_engine(name: &str, cfg: EngineConfig) -> Result<Box<dyn Engine>, String> {
    Ok(match name {
        "gcsm" => Box::new(GcsmEngine::new(cfg)),
        "zp" => Box::new(ZeroCopyEngine::new(cfg)),
        "um" => Box::new(UnifiedMemEngine::new(cfg)),
        "vsgm" => Box::new(VsgmEngine::new(cfg)),
        "naive" => Box::new(NaiveDegreeEngine::new(cfg)),
        "cpu" => Box::new(CpuWcojEngine::new(cfg)),
        "rf" => Box::new(RapidFlowEngine::new(cfg)),
        other => return Err(format!("unknown engine '{other}'")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("csm: {e}\ntry --help");
            std::process::exit(2);
        }
    };

    // Observability: flip the process-wide obs layer on *before* any batch
    // runs so every span and counter of the run lands in the export.
    let obs_requested = args.metrics.is_some() || args.trace.is_some();
    if obs_requested {
        gcsm_obs::global().enable();
    }

    let (graph, updates): (CsrGraph, Vec<EdgeUpdate>) = if args.demo {
        let g = match args.preset.as_str() {
            "er" => gcsm_datagen::er::gnm(1 << 12, 1 << 14, 42),
            _ => gcsm_datagen::social::generate_social(&gcsm_datagen::social::SocialConfig::new(
                15, 6, 42,
            )),
        };
        let stream =
            gcsm_datagen::UpdateStream::generate(&g, gcsm_datagen::StreamConfig::Fraction(0.1), 7);
        (stream.initial, stream.updates)
    } else {
        let graph_path = args.graph.as_deref().unwrap_or_else(|| {
            eprintln!("csm: --graph is required without --demo (try --help)");
            std::process::exit(2);
        });
        let updates_path = args.updates.as_deref().unwrap_or_else(|| {
            eprintln!("csm: --updates is required without --demo (try --help)");
            std::process::exit(2);
        });
        let g = io::load_edge_list(graph_path).unwrap_or_else(|e| {
            eprintln!("csm: --graph {graph_path}: {e}");
            std::process::exit(2);
        });
        let u = io::load_updates(updates_path).unwrap_or_else(|e| {
            eprintln!("csm: --updates {updates_path}: {e}");
            std::process::exit(2);
        });
        (g, u)
    };
    let query = resolve_query(&args.query).unwrap_or_else(|e| {
        eprintln!("csm: --query {}: {e}", args.query);
        std::process::exit(2);
    });

    let budget = ((graph.adjacency_bytes() as f64 * args.budget_frac) as usize).max(64 << 10);
    let mut cfg = EngineConfig::with_cache_budget(budget);
    cfg.plan.symmetry_break = args.unique;
    cfg.delta_cache = args.cache_delta;
    cfg.scheduling = args.schedule;

    if args.shards > 1 {
        run_sharded_mode(graph, query, cfg, &updates, &args);
        return;
    }

    let mut engine = make_engine(&args.engine, cfg).unwrap_or_else(|e| {
        eprintln!("csm: --engine {}: {e}", args.engine);
        std::process::exit(2);
    });

    println!(
        "graph: {} vertices, {} edges | query {} (n={}, m={}) | engine {} | {} updates in batches of {}",
        graph.num_vertices(),
        graph.num_edges(),
        query.name(),
        query.num_vertices(),
        query.num_edges(),
        engine.name(),
        updates.len(),
        args.batch_size
    );

    if args.stream {
        run_stream_mode(graph, query, engine, &updates, &args);
        return;
    }

    let mut pipeline = Pipeline::new(graph, query);
    pipeline.set_overlap(args.overlap);
    let mut cumulative = 0i64;
    let mut total_ms = 0.0;
    let unit = if args.unique { "subgraphs" } else { "embeddings" };
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(args.batch_size).collect();
    for (i, batch) in batches.iter().enumerate() {
        if args.collect > 0 {
            let (r, matches) = pipeline.process_batch_collect(engine.as_mut(), batch);
            cumulative += r.matches;
            total_ms += r.total_ms();
            println!(
                "batch {i:>4}: ΔM {:+8}  (cumulative {cumulative:+})  {:.3} ms sim  hit {:>3.0}%",
                r.matches,
                r.total_ms(),
                r.cache_hit_rate * 100.0
            );
            for (m, sign) in matches.iter().take(args.collect) {
                println!("          {} {:?}", if *sign > 0 { "+" } else { "-" }, m);
            }
        } else {
            let r = pipeline.process_batch(engine.as_mut(), batch);
            cumulative += r.matches;
            total_ms += r.total_ms();
            println!(
                "batch {i:>4}: ΔM {:+8}  (cumulative {cumulative:+})  {:.3} ms sim  hit {:>3.0}%",
                r.matches,
                r.total_ms(),
                r.cache_hit_rate * 100.0
            );
        }
    }
    pipeline.flush();
    println!(
        "done: {} batches, net {cumulative:+} {unit}, {:.3} ms total simulated time",
        batches.len(),
        total_ms
    );
    write_obs_outputs(&args);
}

/// `--shards N`: partition the vertex set under `--partition`, give every
/// shard an engine with `1/N` of the cache budget, and drive the batches
/// through [`ShardedPipeline`]. `ΔM` is bit-identical to single-device;
/// the extra columns show what sharding costs (peer bytes) and buys
/// (makespan below the single-device engine time).
fn run_sharded_mode(
    graph: CsrGraph,
    query: QueryGraph,
    cfg: EngineConfig,
    updates: &[EdgeUpdate],
    args: &Args,
) {
    let per_shard_cfg = shard_config(&cfg, args.shards);
    let engines: Vec<Box<dyn Engine>> = (0..args.shards)
        .map(|_| {
            make_engine(&args.engine, per_shard_cfg.clone()).unwrap_or_else(|e| {
                eprintln!("csm: --engine {}: {e}", args.engine);
                std::process::exit(2);
            })
        })
        .collect();
    println!(
        "sharded mode: {} shards, {} partition, {} scheduling",
        args.shards,
        args.partition.name(),
        args.schedule.name()
    );
    let mut pipeline = ShardedPipeline::new(graph, query, args.partition, engines);
    pipeline.set_overlap(args.overlap);
    let mut cumulative = 0i64;
    let mut total_ms = 0.0;
    let mut total_peer = 0u64;
    let batches: Vec<&[EdgeUpdate]> = updates.chunks(args.batch_size).collect();
    for (i, batch) in batches.iter().enumerate() {
        let r = pipeline.process_batch(batch);
        cumulative += r.merged.matches;
        total_ms += r.merged.total_ms();
        total_peer += r.peer_bytes;
        println!(
            "batch {i:>4}: ΔM {:+8}  (cumulative {cumulative:+})  {:.3} ms sim  \
             makespan {:.3} ms  imbalance {:.2}  cut {:>4}  peer {}",
            r.merged.matches,
            r.merged.total_ms(),
            r.makespan_seconds * 1e3,
            r.imbalance,
            r.cut_updates,
            gcsm_bench::fmt_bytes(r.peer_bytes as f64),
        );
    }
    pipeline.flush();
    let unit = if args.unique { "subgraphs" } else { "embeddings" };
    println!(
        "done: {} batches, net {cumulative:+} {unit}, {:.3} ms total simulated time, {} peer traffic",
        batches.len(),
        total_ms,
        gcsm_bench::fmt_bytes(total_peer as f64),
    );
    write_obs_outputs(args);
}

/// Export the run's metrics snapshot and Chrome trace if requested.
fn write_obs_outputs(args: &Args) {
    let obs = gcsm_obs::global();
    if let Some(path) = &args.metrics {
        if let Err(e) = std::fs::write(path, obs.registry.snapshot().to_json()) {
            eprintln!("csm: --metrics {path}: {e}");
            std::process::exit(2);
        }
        println!("metrics written to {path}");
    }
    if let Some(path) = &args.trace {
        if let Err(e) = std::fs::write(path, obs.tracer.to_chrome_json()) {
            eprintln!("csm: --trace {path}: {e}");
            std::process::exit(2);
        }
        println!("trace written to {path} (load in chrome://tracing or ui.perfetto.dev)");
    }
}

/// `--stream`: feed the updates through the concurrent ingestion subsystem
/// (`gcsm::stream`) instead of pre-chunked batches. N producer threads
/// stripe explicit sequence numbers over a bounded queue; the session
/// coalesces, seals at `--batch-size` survivors, and keeps the running
/// ledger. The run finishes with the ledger check against a from-scratch
/// recount.
fn run_stream_mode(
    graph: CsrGraph,
    query: QueryGraph,
    engine: Box<dyn Engine>,
    updates: &[EdgeUpdate],
    args: &Args,
) {
    let producers = args.producers.max(1);
    let mut pipeline = Pipeline::new(graph, query);
    pipeline.set_overlap(args.overlap);
    let base = pipeline.static_count(args.unique);
    println!(
        "stream mode: {} producers, seal at {} survivors, count(G_0) = {base}",
        producers, args.batch_size
    );

    let session = gcsm::stream::spawn_pipeline(
        pipeline,
        engine,
        base,
        StreamConfig {
            seal_policy: SealPolicy::Size(args.batch_size),
            capacity: 1024,
            backpressure: Backpressure::Block,
            mode: SequenceMode::Explicit,
        },
    );
    let rx = session.subscribe();
    // The subscriber stream stays open until the session is dropped, so the
    // printer must live on its own thread and be joined *after* finish().
    let printer = std::thread::spawn(move || {
        for b in rx.iter() {
            let m = b.result.stream.expect("stream meta");
            println!(
                "batch {:>4}: ΔM {:+8}  (total {})  {:>4} updates  seal {:?}  \
                 coalesced -{}  queue {:>3}  {:.3} ms sim",
                m.batch_index,
                b.result.matches,
                b.running_total,
                m.admitted,
                m.seal_reason,
                m.duplicates_dropped + 2 * m.cancelled_pairs,
                m.queue_depth,
                b.result.total_ms(),
            );
        }
    });
    std::thread::scope(|s| {
        for p in 0..producers {
            let producer = session.producer();
            s.spawn(move || {
                let mut i = p;
                while i < updates.len() {
                    producer.ingest_at(i as u64, updates[i]);
                    i += producers;
                }
            });
        }
    });
    let (report, processor) = session.finish();
    printer.join().expect("printer thread panicked");
    write_obs_outputs(args);
    let final_total = report.batches.last().map(|b| b.running_total).unwrap_or(base);
    let recount = processor.into_pipeline().static_count(args.unique);
    println!(
        "done: {} batches from {} updates ({} dropped), ledger {} vs recount {} — {}",
        report.batches.len(),
        report.updates_received,
        report.dropped,
        final_total,
        recount,
        if final_total == recount { "consistent" } else { "MISMATCH" },
    );
    if final_total != recount {
        std::process::exit(1);
    }
}
