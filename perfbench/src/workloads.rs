//! The four workloads. Each is a closed offline batch repeated in rounds:
//! a round submits its whole queue (or scores its whole episode set), then
//! drains it. Rounds repeat until the run's time is up, with at least
//! [`MIN_ROUNDS`] rounds. Round 0 warms up: its simulator counts are the
//! deterministic ones every run prints, and it is left out of the timings.
//! In a traced run every odd round is traced and the even ones are not, so
//! the run measures its own tracing overhead.

use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use nora_cim::{ForwardStats, TileConfig};
use nora_nn::corpus::Episode;
use nora_nn::deploy::AnalogTransformerLm;
use nora_nn::generate::{generate_digital_cached, Sampling};
use nora_serve::{
    AnalogBackend, AnalogKeying, EngineConfig, EngineReport, GenRequest, GenResult,
    GenerationEngine, MaintenanceConfig, RequestOutcome,
};
use nora_tensor::rng::Rng;

use crate::checks::{self, Check, MaintenanceCounts};
use crate::host::Timeline;
use crate::inputs::Inputs;
use crate::report::Report;
use crate::setup::{Setup, MODEL, NORA_DEPLOY_SEED};
use crate::stats::{median, percentile, samples_beyond, samples_needed};
use crate::trace::{durations, self_times_ns, Span, TracedBackend, Tracer, REQUEST};

/// Fewest rounds a run makes, whatever its time: a warm-up round plus at
/// least one untraced and one traced timed round.
pub const MIN_ROUNDS: u64 = 3;
/// Episodes each deployment scores per `eval_nora` round.
pub const EVAL_EPISODES: usize = 500;
/// `eval_nora` rounds whose episodes the accuracy checks score: a fixed
/// 1000 episodes per deployment, so that the checks' verdict depends on the
/// seed alone, not on how many rounds the host manages.
pub const EVAL_CHECK_ROUNDS: u64 = 2;
/// Episodes per timed chunk of the serving workloads' accuracy probe.
const PROBE_CHUNK: usize = 100;
/// Requests sampled for the solo re-serve and ideal-tile checks.
pub const CHECK_SAMPLE: usize = 8;
/// Concurrent decode slots of the serving engine.
pub const MAX_BATCH: usize = 8;
/// Held-out episodes of the serving workloads' accuracy probe.
pub const PROBE_EPISODES: usize = 1000;
/// Input stream of the accuracy probe (rounds use streams 0, 1, …).
const PROBE_STREAM: u64 = 1 << 40;

/// Virtual horizon of each `serve_drift` drain, and its maintenance
/// schedule (the schedule `tests/drift_serving.rs` validates).
pub const DRIFT_HORIZON: f64 = 1e6;
pub const DRIFT_INTERVAL: f64 = 25_000.0;
pub const RECALIBRATION_INTERVAL: f64 = 100_000.0;
pub const ROTATION_LATENCY: f64 = 5_000.0;

/// One serving workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub prompt_len: usize,
    pub new_tokens: usize,
    /// Requests per drain (one closed batch).
    pub requests: usize,
    /// Drains per round, each on a fresh copy of the checkpoint when
    /// maintained. A round holds at least 1000 requests, so that its p99
    /// has 10 samples beyond it.
    pub drains: usize,
    /// Whether drains run the drift maintenance schedule.
    pub maintained: bool,
}

pub const SERVE_DECODE: ServeSpec = ServeSpec {
    prompt_len: 3,
    new_tokens: 13,
    requests: 1024,
    drains: 1,
    maintained: false,
};
pub const SERVE_PREFILL: ServeSpec = ServeSpec {
    prompt_len: 14,
    new_tokens: 2,
    requests: 1024,
    drains: 1,
    maintained: false,
};
pub const SERVE_DRIFT: ServeSpec = ServeSpec {
    prompt_len: 3,
    new_tokens: 13,
    requests: 250,
    drains: 4,
    maintained: true,
};
/// The drain `eval_nora`'s traced run uses to measure the serving layer,
/// which `eval_nora` itself never enters.
pub const PROBE_DRAIN: ServeSpec = ServeSpec {
    prompt_len: 3,
    new_tokens: 13,
    requests: 64,
    drains: 1,
    maintained: false,
};

impl ServeSpec {
    /// Model decode steps one request costs: prompt prefill plus every
    /// generated token but the last (no window rebase: prompt + new tokens
    /// fit the 16-token window).
    pub fn steps_per_request(&self) -> usize {
        self.prompt_len + self.new_tokens - 1
    }

    /// Virtual seconds per decode step, chosen so that one drain covers at
    /// least [`DRIFT_HORIZON`]. A whole number, so the engine's clock sums
    /// exactly.
    pub fn secs_per_decode_step(&self) -> f64 {
        (DRIFT_HORIZON / (self.requests * self.steps_per_request()) as f64).ceil()
    }

    pub fn engine_config(&self) -> EngineConfig {
        let config = EngineConfig::with_max_batch(MAX_BATCH);
        if !self.maintained {
            return config;
        }
        config.with_maintenance(
            MaintenanceConfig::new(self.secs_per_decode_step(), DRIFT_INTERVAL)
                .with_recalibration(RECALIBRATION_INTERVAL)
                .with_rotation(ROTATION_LATENCY),
        )
    }
}

/// Everything one drain produced. Times are wall seconds less the host
/// readings taken during the drain; `nominal` figures are scaled to the
/// nominal host (see [`host`]).
pub struct Drain {
    pub requests: Vec<GenRequest>,
    pub results: Vec<GenResult>,
    pub wall: f64,
    pub nominal: f64,
    /// Admission → final token of each result, unscaled and scaled (ms).
    pub latency_ms: Vec<f64>,
    pub nominal_latency_ms: Vec<f64>,
    /// Median host speed over the drain.
    pub speed: f64,
    pub report: EngineReport,
    pub maintenance: MaintenanceCounts,
    /// Mean admission → first-logits time (seconds).
    pub prefill_mean: f64,
    /// Wall time the engine spent in backend maintenance calls.
    pub maintenance_time: Duration,
}

impl Drain {
    pub fn generated(&self) -> u64 {
        self.results
            .iter()
            .map(|r| r.generated().len() as u64)
            .sum()
    }

    pub fn decode_steps(&self) -> u64 {
        self.results.iter().map(|r| r.decode_steps).sum()
    }

    pub fn tokens(&self) -> Vec<Vec<usize>> {
        self.results.iter().map(|r| r.tokens.clone()).collect()
    }
}

/// Submits every request to a fresh keyed engine over `analog`, then runs
/// rounds until the queue is drained, reading the host speed between
/// rounds. Traced: each engine round and backend call is a span, and each
/// request a span from admission to final token.
pub fn drain(
    analog: &mut AnalogTransformerLm,
    requests: Vec<GenRequest>,
    config: EngineConfig,
    tracer: Option<&Rc<Tracer>>,
    request_base: u64,
) -> Drain {
    let maintenance_time = Rc::new(Cell::new(Duration::ZERO));
    let backend = TracedBackend::new(
        AnalogBackend::with_keying(analog, AnalogKeying::Keyed),
        tracer.cloned(),
        Rc::clone(&maintenance_time),
    );
    let mut engine = GenerationEngine::new(backend, config);
    let mut timeline = Timeline::new();
    let root = tracer.map(|t| t.open("serve.drain", "bench", None));
    let start = Instant::now();
    let mut submitted = Vec::with_capacity(requests.len());
    for request in &requests {
        submitted.push(Instant::now());
        engine.submit(request.clone());
    }
    loop {
        let step = tracer.map(|t| t.open("engine.step", "nora-serve", None));
        let more = engine.step();
        if let (Some(t), Some(step)) = (tracer, step) {
            t.close(step);
        }
        if !more {
            break;
        }
        timeline.tick();
    }
    let end = Instant::now();
    timeline.read();
    let results = engine.take_results();
    let served: Vec<(Instant, Instant)> = results
        .iter()
        .map(|r| {
            let admitted = submitted[r.id as usize] + r.latency.queue_wait;
            (admitted, admitted + r.latency.service)
        })
        .collect();
    if let (Some(t), Some(root)) = (tracer, root) {
        for (r, &(admitted, done)) in results.iter().zip(&served) {
            t.record(Span {
                name: "request",
                layer: REQUEST,
                start_ns: t.at(admitted),
                end_ns: t.at(done),
                parent: Some(root),
                request: Some(request_base + r.id),
            });
        }
        t.close(root);
    }
    let metrics = engine.metrics();
    let maintenance = MaintenanceCounts {
        virtual_now: engine.virtual_now(),
        drift_steps: metrics.counter("serve.maint.drift_steps"),
        recalibrations: metrics.counter("serve.maint.recalibrations"),
        rotations: metrics.counter("serve.maint.rotations"),
    };
    let prefill_mean = metrics
        .histogram("serve.prefill_secs")
        .map_or(0.0, |h| h.mean());
    Drain {
        requests,
        results,
        wall: timeline.wall(start, end),
        nominal: timeline.nominal(&[(start, end)])[0],
        latency_ms: served
            .iter()
            .map(|&(a, b)| timeline.wall(a, b) * 1e3)
            .collect(),
        nominal_latency_ms: timeline
            .nominal(&served)
            .into_iter()
            .map(|s| s * 1e3)
            .collect(),
        speed: timeline.median_speed(),
        report: engine.report(),
        maintenance,
        prefill_mean,
        maintenance_time: maintenance_time.get(),
    }
}

/// Simulator counts of one round, printed by every run.
fn print_cim_counts(label: &str, s: &ForwardStats) {
    println!(
        "counts {label}: cim.reads {} cim.bm_retries {} cim.adc_saturations {} cim.dac_clips {}",
        s.samples, s.bound_mgmt_retries, s.saturated_outputs, s.clipped_inputs
    );
}

/// Per-layer `cim.*` count metrics of one round's tile statistics.
fn cim_count_metrics(report: &mut Report, s: &ForwardStats) {
    report.metric("cim.reads", s.samples as f64, "count");
    report.metric("cim.bm_retries", s.bound_mgmt_retries as f64, "count");
    report.metric("cim.adc_saturations", s.saturated_outputs as f64, "count");
    report.metric("cim.dac_clips", s.clipped_inputs as f64, "count");
    let ratio = s.bound_mgmt_retries as f64 / s.samples.max(1) as f64;
    report.metric("cim.retry_ratio", ratio, "ratio");
}

/// Folds a per-round check into a run-wide one, keeping the first failure.
fn and(acc: &mut Check, round: u64, next: Check) {
    if acc.is_ok() {
        if let Err(e) = next {
            *acc = Err(format!("round {round}: {e}"));
        }
    }
}

/// Throughputs of the timed rounds, split by whether they were traced.
#[derive(Default)]
pub struct Throughput {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

impl Throughput {
    fn push(&mut self, traced: bool, value: f64) {
        if traced {
            self.traced.push(value)
        } else {
            self.untraced.push(value)
        }
    }

    /// Tracing overhead as a percentage of untraced throughput.
    pub fn overhead_pct(&self) -> f64 {
        let base = median(&self.untraced);
        100.0 * (base - median(&self.traced)) / base
    }
}

fn predict(analog: &mut AnalogTransformerLm, ep: &Episode) -> usize {
    analog.predict_next(&ep.tokens[..ep.tokens.len() - 1])
}

/// The figures behind the end-to-end metrics, which every workload reports.
/// Rates and latencies are scaled to the nominal host (see [`host`]); the
/// raw figures are printed beside them.
#[derive(Default)]
pub struct EndToEnd {
    /// Generated tokens per second of each timed round (one predicted
    /// token per scored episode on `eval_nora`).
    pub rate: Throughput,
    /// Per-request latency of the untraced timed rounds (one episode's
    /// scoring on `eval_nora`).
    pub latency_ms: Vec<f64>,
    /// p99 latency of each untraced timed round. Rounds hold at least 1000
    /// requests, so each has 10 samples beyond its p99; their median keeps
    /// a host disturbance that hits one round from setting the figure.
    pub round_p99_ms: Vec<f64>,
    pub episodes_per_s: f64,
    pub accuracy: f64,
    /// Unscaled round rates and latencies, and the host speed of each
    /// untraced round.
    raw_rate: Vec<f64>,
    raw_latency_ms: Vec<f64>,
    speeds: Vec<f64>,
    raw_episodes_per_s: f64,
}

/// One timed round's figures, unscaled and scaled to the nominal host.
struct Round<'a> {
    work: f64,
    wall: f64,
    nominal: f64,
    latency_ms: &'a [f64],
    nominal_latency_ms: &'a [f64],
    speed: f64,
}

impl EndToEnd {
    /// Records one timed round; traced rounds count only towards the
    /// tracing overhead.
    fn push(&mut self, traced: bool, round: Round<'_>) {
        self.rate.push(traced, round.work / round.nominal);
        if !traced {
            self.raw_rate.push(round.work / round.wall);
            self.speeds.push(round.speed);
            self.raw_latency_ms.extend_from_slice(round.latency_ms);
            self.latency_ms.extend_from_slice(round.nominal_latency_ms);
            self.round_p99_ms
                .push(percentile(round.nominal_latency_ms, 99.0));
        }
    }

    fn report(&self, report: &mut Report) {
        let n = self.latency_ms.len();
        let per_round = n / self.round_p99_ms.len();
        println!(
            "latency samples: {n} in {} rounds of {per_round}, {} beyond each round's p99 ({} give the 10 a p99 needs)",
            self.round_p99_ms.len(),
            samples_beyond(per_round, 99.0),
            samples_needed(99.0, 10)
        );
        println!(
            "unscaled: tokens_per_s {:.1} latency_p50_ms {:.4} latency_p99_ms {:.4} episodes_per_s {:.1}; host speed median {:.3} (min {:.3}, max {:.3})",
            median(&self.raw_rate),
            percentile(&self.raw_latency_ms, 50.0),
            percentile(&self.raw_latency_ms, 99.0),
            self.raw_episodes_per_s,
            median(&self.speeds),
            self.speeds.iter().copied().fold(f64::INFINITY, f64::min),
            self.speeds.iter().copied().fold(0.0, f64::max),
        );
        report.metric("tokens_per_s", median(&self.rate.untraced), "1/s");
        report.metric("latency_p50_ms", percentile(&self.latency_ms, 50.0), "ms");
        report.metric("latency_p99_ms", median(&self.round_p99_ms), "ms");
        report.metric("episodes_per_s", self.episodes_per_s, "1/s");
        report.metric("accuracy", self.accuracy, "ratio");
    }
}

/// `eval_nora`: the naive and the NORA deployment each score rounds of
/// held-out recall episodes through the full-sequence analog forward.
pub fn eval_nora(
    setup: &mut Setup,
    inputs: &Inputs,
    seconds: f64,
    tracer: Option<&Rc<Tracer>>,
    report: &mut Report,
) -> Throughput {
    let mut naive = setup.naive.take().expect("eval_nora deploys a naive model");
    let start = Instant::now();
    let mut e2e = EndToEnd::default();
    let mut scored_at = Vec::new();
    let (mut nora_preds, mut naive_correct, mut nora_correct) = (Vec::new(), 0usize, 0usize);
    let mut round = 0u64;
    while round < MIN_ROUNDS.max(EVAL_CHECK_ROUNDS) || start.elapsed().as_secs_f64() < seconds {
        let episodes = inputs.episodes(round, EVAL_EPISODES);
        let traced = tracer.filter(|_| round % 2 == 1);
        if round == 0 {
            naive.reset_stats();
            setup.nora.reset_stats();
        }
        let mut timeline = Timeline::new();
        scored_at.clear();
        let t = Instant::now();
        let root = traced.map(|tr| tr.open("eval.round", "bench", None));
        for (name, analog) in [("eval.naive", &mut naive), ("eval.nora", &mut setup.nora)] {
            for (i, ep) in episodes.iter().enumerate() {
                let span = traced.map(|tr| {
                    tr.open(
                        name,
                        "nora-nn",
                        Some(round * EVAL_EPISODES as u64 + i as u64),
                    )
                });
                let t = Instant::now();
                let p = predict(analog, ep);
                scored_at.push((t, Instant::now()));
                if let (Some(tr), Some(id)) = (traced, span) {
                    tr.close(id);
                }
                timeline.tick();
                if name == "eval.nora" {
                    nora_correct += usize::from(p == ep.key);
                    nora_preds.push(p);
                } else if round < EVAL_CHECK_ROUNDS {
                    naive_correct += usize::from(p == ep.key);
                }
            }
        }
        if let (Some(tr), Some(id)) = (traced, root) {
            tr.close(id);
        }
        let end = Instant::now();
        timeline.read();
        if round == 0 {
            print_cim_counts("round 0 naive", &naive.stats());
            print_cim_counts("round 0 nora", &setup.nora.stats());
            if tracer.is_some() {
                cim_count_metrics(report, &setup.nora.stats());
            }
        } else {
            let latency_ms: Vec<f64> = scored_at
                .iter()
                .map(|&(a, b)| timeline.wall(a, b) * 1e3)
                .collect();
            let nominal_latency_ms: Vec<f64> = timeline
                .nominal(&scored_at)
                .into_iter()
                .map(|s| s * 1e3)
                .collect();
            e2e.push(
                traced.is_some(),
                Round {
                    work: (2 * EVAL_EPISODES) as f64,
                    wall: timeline.wall(t, end),
                    nominal: timeline.nominal(&[(t, end)])[0],
                    latency_ms: &latency_ms,
                    nominal_latency_ms: &nominal_latency_ms,
                    speed: timeline.median_speed(),
                },
            );
        }
        round += 1;
    }
    let scored = nora_preds.len();
    report.attempted = 2 * scored as u64;
    println!(
        "ops: {} episodes scored ({scored} per deployment) in {round} rounds, 0 failed",
        report.attempted
    );

    // Checks, against the digital model and an ideal-tile deployment of the
    // same plan: predictions on every scored episode, accuracies on the
    // episodes of the first rounds.
    let mut ideal = setup
        .plan
        .deploy(&setup.model, TileConfig::ideal(), NORA_DEPLOY_SEED);
    let (mut ideal_preds, mut digital_preds, mut digital_correct) =
        (Vec::new(), Vec::new(), 0usize);
    for r in 0..round {
        for ep in inputs.episodes(r, EVAL_EPISODES) {
            let d = setup.model.predict_next(&ep.tokens[..ep.tokens.len() - 1]);
            if r < EVAL_CHECK_ROUNDS {
                digital_correct += usize::from(d == ep.key);
            }
            digital_preds.push(d);
            ideal_preds.push(predict(&mut ideal, &ep));
        }
    }
    let checked = EVAL_CHECK_ROUNDS as usize * EVAL_EPISODES;
    let checked_nora = nora_preds[..checked]
        .iter()
        .zip((0..EVAL_CHECK_ROUNDS).flat_map(|r| inputs.episodes(r, EVAL_EPISODES)))
        .filter(|(p, ep)| **p == ep.key)
        .count();
    let acc = |c: usize, n: usize| c as f64 / n as f64;
    println!(
        "accuracy on the first {checked} episodes: digital {:.4} naive {:.4} nora {:.4}; nora on all {scored}: {:.4}",
        acc(digital_correct, checked),
        acc(naive_correct, checked),
        acc(checked_nora, checked),
        acc(nora_correct, scored)
    );
    report.check(
        "ideal tiles predict the digital token on every episode",
        checks::same_predictions(&ideal_preds, &digital_preds),
    );
    report.check(
        "NORA accuracy within 4 SE of digital",
        checks::within_se(digital_correct, checked_nora, checked, 4.0),
    );
    report.check(
        "naive accuracy 50 pp below NORA",
        checks::naive_far_below(acc(naive_correct, checked), acc(checked_nora, checked), 0.5),
    );

    if tracer.is_none() {
        e2e.episodes_per_s = median(&e2e.rate.untraced);
        e2e.raw_episodes_per_s = median(&e2e.raw_rate);
        e2e.accuracy = acc(nora_correct, scored);
        e2e.report(report);
    }
    setup.naive = Some(naive);
    e2e.rate
}

/// Deterministic engine counts of one round, summed over its drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub rounds: u64,
    pub decode_steps: u64,
    pub generated_tokens: u64,
    pub drift_steps: u64,
    pub recalibrations: u64,
    pub rotations: u64,
}

impl EngineCounts {
    fn sum(reports: &[EngineReport], maintenance: &[MaintenanceCounts]) -> Self {
        let mut c = Self::default();
        for r in reports {
            c.rounds += r.rounds;
            c.decode_steps += r.decode_steps;
            c.generated_tokens += r.generated_tokens;
        }
        for m in maintenance {
            c.drift_steps += m.drift_steps;
            c.recalibrations += m.recalibrations;
            c.rotations += m.rotations;
        }
        c
    }
}

/// Per-layer engine figures of the traced drains.
#[derive(Default)]
pub struct EngineFigures {
    pub queue_wait_ms: Vec<f64>,
    pub prefill_ms: Vec<f64>,
    pub maintenance_share: Vec<f64>,
    pub round0: Option<EngineCounts>,
}

impl EngineFigures {
    fn add(&mut self, d: &Drain) {
        self.queue_wait_ms.extend(
            d.results
                .iter()
                .map(|r| r.latency.queue_wait.as_secs_f64() * 1e3),
        );
        self.prefill_ms.push(d.prefill_mean * 1e3);
        self.maintenance_share
            .push(d.maintenance_time.as_secs_f64() / d.wall);
    }

    /// `serve.*` per-layer metrics from the traced spans and drains.
    pub fn metrics(&self, spans: &[Span], report: &mut Report) {
        let ms = |v: Vec<f64>| median(&v.iter().map(|s| s * 1e3).collect::<Vec<_>>());
        report.metric("serve.round_ms", ms(durations(spans, "engine.step")), "ms");
        let own = self_times_ns(spans);
        let step_self: Vec<f64> = spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == "engine.step")
            .map(|(_, &t)| t as f64 * 1e-6)
            .collect();
        report.metric("serve.engine_self_ms", median(&step_self), "ms");
        report.metric(
            "serve.run_round_ms",
            ms(durations(spans, "backend.run_round")),
            "ms",
        );
        let engine = self.round0.expect("round 0 ran");
        report.metric("serve.rounds", engine.rounds as f64, "count");
        report.metric(
            "serve.steps_per_round",
            engine.decode_steps as f64 / engine.rounds as f64,
            "count",
        );
        report.metric(
            "serve.steps_per_token",
            engine.decode_steps as f64 / engine.generated_tokens as f64,
            "count",
        );
        report.metric(
            "serve.queue_wait_p50_ms",
            percentile(&self.queue_wait_ms, 50.0),
            "ms",
        );
        report.metric("serve.prefill_ms", median(&self.prefill_ms), "ms");
        report.metric(
            "serve.maint_share",
            median(&self.maintenance_share),
            "ratio",
        );
        report.metric(
            "serve.maint.drift_steps",
            engine.drift_steps as f64,
            "count",
        );
        report.metric(
            "serve.maint.recalibrations",
            engine.recalibrations as f64,
            "count",
        );
        report.metric("serve.maint.rotations", engine.rotations as f64, "count");
    }
}

fn accuracy(analog: &mut AnalogTransformerLm, episodes: &[Episode]) -> f64 {
    score(analog, episodes).0
}

/// Accuracy on `episodes`, and the median scoring rate of its chunks of
/// [`PROBE_CHUNK`] (episodes per second) scaled to the nominal host and
/// unscaled.
fn score(analog: &mut AnalogTransformerLm, episodes: &[Episode]) -> (f64, f64, f64) {
    let mut correct = 0;
    let (mut rates, mut raw) = (Vec::new(), Vec::new());
    for chunk in episodes.chunks(PROBE_CHUNK) {
        let mut timeline = Timeline::new();
        let t = Instant::now();
        for ep in chunk {
            correct += usize::from(predict(analog, ep) == ep.key);
            timeline.tick();
        }
        let end = Instant::now();
        timeline.read();
        rates.push(chunk.len() as f64 / timeline.nominal(&[(t, end)])[0]);
        raw.push(chunk.len() as f64 / timeline.wall(t, end));
    }
    (
        correct as f64 / episodes.len() as f64,
        median(&rates),
        median(&raw),
    )
}

/// A serving workload: rounds of closed-batch drains on the NORA
/// deployment (a fresh clone of the burnt-in faulty checkpoint per round
/// for `serve_drift`).
pub fn serve(
    setup: &mut Setup,
    inputs: &Inputs,
    spec: ServeSpec,
    seconds: f64,
    tracer: Option<&Rc<Tracer>>,
    report: &mut Report,
) -> (Throughput, EngineFigures) {
    let vocab = MODEL.vocab;
    let config = spec.engine_config();
    // The probe scores a copy of the deployment as set up (t = 0 for
    // `serve_drift`), which serving leaves unchanged. A maintained engine
    // serves with recovery deferred to its scheduler, so the t = 0 copy
    // does too: its probe then repairs nothing inline.
    let mut e2e = EndToEnd::default();
    let probe = inputs.episodes(PROBE_STREAM, PROBE_EPISODES);
    let mut t0 = setup.nora.clone();
    t0.set_deferred_recovery(spec.maintained);
    let (t0_accuracy, episodes_per_s, raw_episodes_per_s) = score(&mut t0, &probe);
    e2e.episodes_per_s = episodes_per_s;
    e2e.raw_episodes_per_s = raw_episodes_per_s;
    let start = Instant::now();
    let mut figures = EngineFigures::default();
    let (mut complete, mut schedule): (Check, Check) = (Ok(()), Ok(()));
    let (mut submitted, mut completed, mut shed, mut cancelled) = (0u64, 0u64, 0u64, 0u64);
    let mut first: Option<Drain> = None;
    let mut last_maintained: Option<AnalogTransformerLm> = None;
    let mut round = 0u64;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let per_round = spec.requests * spec.drains;
        let requests = inputs.requests(round, per_round, spec.prompt_len, spec.new_tokens);
        let traced = tracer.filter(|_| round % 2 == 1);
        let (mut stats, mut engine, mut maint) = (ForwardStats::default(), Vec::new(), Vec::new());
        let (mut generated, mut wall, mut nominal, mut speeds) = (0u64, 0.0, 0.0, Vec::new());
        let (mut latency_ms, mut nominal_latency_ms) = (Vec::new(), Vec::new());
        for (k, chunk) in requests.chunks(spec.requests).enumerate() {
            let mut clone = spec.maintained.then(|| setup.nora.clone());
            let analog = clone.as_mut().unwrap_or(&mut setup.nora);
            analog.reset_stats();
            let base = round * per_round as u64 + (k * spec.requests) as u64;
            let d = drain(analog, chunk.to_vec(), config.clone(), traced, base);
            stats.merge(&analog.stats());
            submitted += d.requests.len() as u64;
            for r in &d.results {
                match r.outcome {
                    RequestOutcome::Completed => completed += 1,
                    RequestOutcome::Shed => shed += 1,
                    RequestOutcome::Cancelled => cancelled += 1,
                }
            }
            and(
                &mut complete,
                round,
                checks::requests_completed(&d.requests, &d.results, vocab),
            );
            if spec.maintained {
                and(
                    &mut schedule,
                    round,
                    checks::maintenance_schedule(
                        &d.maintenance,
                        d.decode_steps(),
                        spec.secs_per_decode_step(),
                        DRIFT_INTERVAL,
                        RECALIBRATION_INTERVAL,
                    ),
                );
            }
            engine.push(d.report);
            maint.push(d.maintenance);
            generated += d.generated();
            wall += d.wall;
            nominal += d.nominal;
            speeds.push(d.speed);
            latency_ms.extend_from_slice(&d.latency_ms);
            nominal_latency_ms.extend_from_slice(&d.nominal_latency_ms);
            if traced.is_some() {
                figures.add(&d);
            }
            if first.is_none() {
                first = Some(d);
            }
            if clone.is_some() {
                last_maintained = clone;
            }
        }
        if round == 0 {
            let engine = EngineCounts::sum(&engine, &maint);
            print_cim_counts("round 0", &stats);
            println!(
                "counts round 0: serve.rounds {} model steps {} generated {} serve.maint.drift_steps {} serve.maint.recalibrations {} serve.maint.rotations {} over {} drain(s)",
                engine.rounds,
                engine.decode_steps,
                engine.generated_tokens,
                engine.drift_steps,
                engine.recalibrations,
                engine.rotations,
                spec.drains
            );
            if tracer.is_some() {
                cim_count_metrics(report, &stats);
            }
            figures.round0 = Some(engine);
        } else {
            e2e.push(
                traced.is_some(),
                Round {
                    work: generated as f64,
                    wall,
                    nominal,
                    latency_ms: &latency_ms,
                    nominal_latency_ms: &nominal_latency_ms,
                    speed: median(&speeds),
                },
            );
        }
        round += 1;
    }
    report.attempted = submitted;
    report.failed = submitted - completed;
    println!(
        "ops: {submitted} requests submitted in {round} rounds: {completed} completed, {shed} shed, {cancelled} cancelled"
    );
    report.check(
        "every request completed once with its token count",
        complete,
    );

    let first = first.expect("round 0 ran");
    let sample = inputs.sample(0, first.requests.len(), CHECK_SAMPLE);
    report.check(
        "sampled requests re-served alone are bit-identical",
        solo_reserve(setup, spec, &first, &sample),
    );
    report.check(
        "ideal tiles decode the digital model's greedy tokens",
        ideal_greedy(setup, &first, &sample),
    );
    // Accuracy of the deployment as served, on held-out episodes: the
    // maintained deployment after its last drain for `serve_drift`.
    let served = last_maintained.as_mut().unwrap_or(&mut setup.nora);
    e2e.accuracy = accuracy(served, &probe);
    println!(
        "probe accuracy: {t0_accuracy:.4} as set up, {:.4} after serving ({PROBE_EPISODES} episodes)",
        e2e.accuracy
    );
    if spec.maintained {
        report.check(
            "drift catch-ups and recalibrations follow the virtual clock",
            schedule,
        );
        report.check(
            "maintained deployment keeps 95% of t=0 accuracy",
            checks::accuracy_retained(t0_accuracy, e2e.accuracy, 0.95),
        );
    }

    if tracer.is_none() {
        e2e.report(report);
    }
    (e2e.rate, figures)
}

/// Keyed-noise property: sampled requests served alone at batch 1 give the
/// tokens they got in the batched drain. Maintained drains change the
/// deployment as they go, so for `serve_drift` the sample is served batched
/// and alone on unmaintained clones of the checkpoint instead.
fn solo_reserve(setup: &mut Setup, spec: ServeSpec, first: &Drain, sample: &[usize]) -> Check {
    let picked: Vec<GenRequest> = sample.iter().map(|&i| first.requests[i].clone()).collect();
    let batched: Vec<Vec<usize>> = if spec.maintained {
        let mut clone = setup.nora.clone();
        drain(
            &mut clone,
            picked.clone(),
            EngineConfig::with_max_batch(MAX_BATCH),
            None,
            0,
        )
        .tokens()
    } else {
        sample
            .iter()
            .map(|&i| first.results[i].tokens.clone())
            .collect()
    };
    let solo: Vec<Vec<usize>> = picked
        .into_iter()
        .map(|request| {
            let mut clone = spec.maintained.then(|| setup.nora.clone());
            let analog = clone.as_mut().unwrap_or(&mut setup.nora);
            drain(
                analog,
                vec![request],
                EngineConfig::with_max_batch(1),
                None,
                0,
            )
            .results[0]
                .tokens
                .clone()
        })
        .collect();
    checks::same_tokens("solo vs batched", &batched, &solo)
}

/// Sampled requests, greedy, served through the engine on ideal tiles give
/// the digital model's own cached greedy decode.
fn ideal_greedy(setup: &Setup, first: &Drain, sample: &[usize]) -> Check {
    let requests: Vec<GenRequest> = sample
        .iter()
        .map(|&i| first.requests[i].clone().with_sampling(Sampling::Greedy))
        .collect();
    let mut ideal = setup
        .plan
        .deploy(&setup.model, TileConfig::ideal(), NORA_DEPLOY_SEED);
    let served = drain(
        &mut ideal,
        requests.clone(),
        EngineConfig::with_max_batch(MAX_BATCH),
        None,
        0,
    )
    .tokens();
    let digital: Vec<Vec<usize>> = requests
        .iter()
        .map(|r| {
            let mut rng = Rng::seed_from(r.seed);
            generate_digital_cached(
                &setup.model,
                &r.prompt,
                r.max_new_tokens,
                Sampling::Greedy,
                &mut rng,
            )
        })
        .collect();
    checks::same_tokens("ideal-tile engine vs digital", &digital, &served)
}

/// `eval_nora` never enters the serving engine; its traced run measures the
/// engine on a short decode drain of the NORA deployment instead: one
/// untraced drain for the counts, then one traced.
pub fn probe_drain(setup: &Setup, inputs: &Inputs, tracer: &Rc<Tracer>) -> EngineFigures {
    let spec = PROBE_DRAIN;
    let mut analog = setup.nora.clone();
    let mut figures = EngineFigures::default();
    for (i, traced) in [None, Some(tracer)].into_iter().enumerate() {
        let requests = inputs.requests(
            PROBE_STREAM + i as u64,
            spec.requests,
            spec.prompt_len,
            spec.new_tokens,
        );
        let d = drain(&mut analog, requests, spec.engine_config(), traced, 0);
        match traced {
            None => figures.round0 = Some(EngineCounts::sum(&[d.report], &[d.maintenance])),
            Some(_) => figures.add(&d),
        }
    }
    figures
}
