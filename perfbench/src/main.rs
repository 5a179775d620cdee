//! End-to-end and per-layer benchmark of the NORA analog-deployment stack.
//!
//! ```text
//! NORA_THREADS=1 cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_nora|serve_decode|serve_prefill|serve_drift> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its deployments from nothing (several times, to time
//! set-up), runs the workload for the given time, checks its outputs, and
//! prints as its last line one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of a traced run (`--trace 1`). It exits non-zero when a check
//! fails. See `README.md` beside this file.

mod checks;
mod host;
mod inputs;
mod replay;
mod report;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;

use inputs::Inputs;
use report::Report;
use setup::{set_up, Deployments, Setup, MODEL, TRAIN};
use stats::median;
use trace::{durations, self_times_ns, Span, Tracer};
use workloads::{EngineFigures, Throughput};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WORKLOADS: [&str; 4] = ["eval_nora", "serve_decode", "serve_prefill", "serve_drift"];
const USAGE: &str =
    "usage: perfbench --workload <eval_nora|serve_decode|serve_prefill|serve_drift> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or(format!("unknown workload {value:?}"))?;
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Bits of the digital logits and of one analog forward on a clone of the
/// deployment: equal across set-ups iff set-up is deterministic.
fn fingerprint(setup: &Setup) -> Vec<u32> {
    let tokens: Vec<usize> = setup.text[..MODEL.max_seq].to_vec();
    let mut bits: Vec<u32> = setup
        .model
        .forward(&tokens)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let analog = setup.nora.clone().forward(&tokens);
    bits.extend(analog.as_slice().iter().map(|v| v.to_bits()));
    bits
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nora_parallel::max_threads()
    );
    let which = match args.workload {
        "eval_nora" => Deployments::NaiveAndNora,
        "serve_drift" => Deployments::FaultyNora,
        _ => Deployments::Nora,
    };
    let tracer = args.trace.then(|| Rc::new(Tracer::new()));

    let mut report = Report::default();
    let mut times = Vec::with_capacity(SETUPS);
    let (mut scaled, mut speeds) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut built: Option<(Setup, Vec<u32>)> = None;
    let mut deterministic = Ok(());
    for i in 0..SETUPS {
        // The last set-up is the traced one and the one the workload uses.
        let traced = tracer.as_deref().filter(|_| i + 1 == SETUPS);
        let mut timeline = host::Timeline::new();
        let start = std::time::Instant::now();
        let (setup, t) = set_up(which, traced);
        let end = std::time::Instant::now();
        timeline.read();
        scaled.push(timeline.nominal(&[(start, end)])[0]);
        speeds.push(timeline.median_speed());
        let print = fingerprint(&setup);
        if built.as_ref().is_some_and(|(_, prev)| *prev != print) {
            deterministic = Err(format!("set-up {i} built a different deployment"));
        }
        times.push(t);
        built = Some((setup, print));
    }
    let mut setup = built.expect("at least one set-up").0;
    report.check("set-up is deterministic", deterministic);
    // Set-up time scaled to the nominal host like every other timing.
    let raw: Vec<f64> = times.iter().map(|t| t.total).collect();
    let setup_s = median(&scaled);
    let last = times[SETUPS - 1];
    println!(
        "setup: median {setup_s:.3} s of {SETUPS} (unscaled {:.3} s, host speed {:.3}); last: train {:.3} s calibrate {:.4} s plan {:.4} s deploy {:.4} s",
        median(&raw),
        median(&speeds),
        last.train,
        last.calibrate,
        last.plan,
        last.deploy
    );

    let inputs = Inputs::new(args.seed, setup.text.clone(), MODEL.vocab, MODEL.max_seq);
    let (rate, figures) = match args.workload {
        "eval_nora" => {
            let rate = workloads::eval_nora(
                &mut setup,
                &inputs,
                args.seconds,
                tracer.as_ref(),
                &mut report,
            );
            (rate, None)
        }
        name => {
            let spec = match name {
                "serve_decode" => workloads::SERVE_DECODE,
                "serve_prefill" => workloads::SERVE_PREFILL,
                _ => workloads::SERVE_DRIFT,
            };
            let (rate, figures) = workloads::serve(
                &mut setup,
                &inputs,
                spec,
                args.seconds,
                tracer.as_ref(),
                &mut report,
            );
            (rate, Some(figures))
        }
    };

    match &tracer {
        None => {
            report.metric("setup_s", setup_s, "s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        }
        Some(tracer) => layer_metrics(
            &mut setup,
            &inputs,
            tracer,
            &rate,
            figures,
            &last,
            args.workload,
            &mut report,
        ),
    }
    if let Some(tracer) = &tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, &tracer.spans()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    for (name, result) in &report.checks {
        match result {
            Ok(()) => println!("check ok: {name}"),
            Err(e) => println!("check FAILED: {name}: {e}"),
        }
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer metrics of a traced run: engine figures from the traced drains
/// (a probe drain for `eval_nora`, which never enters the engine), layer
/// replays, set-up phases, self time by layer, and tracing overhead.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    setup: &mut Setup,
    inputs: &Inputs,
    tracer: &Rc<Tracer>,
    rate: &Throughput,
    figures: Option<EngineFigures>,
    last: &setup::SetupTimes,
    workload: &str,
    report: &mut Report,
) {
    let figures = figures.unwrap_or_else(|| workloads::probe_drain(setup, inputs, tracer));
    let spans = tracer.spans();
    figures.metrics(&spans, report);

    let faulty = (workload == "serve_drift").then_some(&setup.nora);
    let sweep = replay::maintenance(setup, faulty);
    let per_call = |name: &str, replayed: f64| {
        let calls = durations(&spans, name);
        1e3 * if calls.is_empty() {
            replayed
        } else {
            median(&calls)
        }
    };
    report.metric("serve.maint_ms", sweep.sweep * 1e3, "ms");
    report.metric(
        "serve.maint.drift_ms",
        per_call("backend.drift_to", sweep.drift),
        "ms",
    );
    report.metric(
        "serve.maint.recalibrate_ms",
        per_call("backend.recalibrate", sweep.recalibrate),
        "ms",
    );
    report.metric(
        "serve.maint.rotate_ms",
        per_call("backend.rotate_tile", sweep.rotate),
        "ms",
    );

    let shares = replay::layers(setup, inputs, report);
    report.metric(
        "nn.train_step_ms",
        last.train / TRAIN.steps as f64 * 1e3,
        "ms",
    );
    report.metric("core.calibrate_ms", last.calibrate * 1e3, "ms");
    report.metric("core.plan_ms", last.plan * 1e3, "ms");
    report.metric("device.deploy_ms", last.deploy * 1e3, "ms");

    for (layer, ms) in self_time_by_layer(&spans, &shares) {
        report.metric(format!("self_ms.{layer}"), ms, "ms");
    }
    report.metric("trace.overhead_pct", rate.overhead_pct(), "%");
}

/// Self time per program layer over the traced set-up and rounds (ms).
/// Spans see a decode round or an episode forward as one `nora-nn` call;
/// the share of it spent in `nora-cim` linears is taken from the replays.
fn self_time_by_layer(spans: &[Span], shares: &replay::CimShares) -> Vec<(&'static str, f64)> {
    let layers = ["serve", "nn", "cim", "device", "core"];
    let mut ms = [0.0f64; 5];
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let own = own as f64 * 1e-6;
        let cim = match s.name {
            "backend.run_round" => shares.keyed,
            "eval.naive" | "eval.nora" => shares.forward,
            _ => 0.0,
        };
        match s.layer {
            "nora-serve" => ms[0] += own,
            "nora-nn" => {
                ms[1] += own * (1.0 - cim);
                ms[2] += own * cim;
            }
            "nora-cim" => ms[2] += own,
            "nora-device" => ms[3] += own,
            "nora-core" => ms[4] += own,
            _ => {}
        }
    }
    layers.into_iter().zip(ms).collect()
}
