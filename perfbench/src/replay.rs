//! Layer replays: each layer entry point timed on its own, on inputs cut
//! from the workload (its requests and episodes) and on the workload's own
//! deployment. Each figure is the median over repeated calls.

use std::time::Instant;

use nora_cim::{AnalogLinear, DriftCompensation, KeyedCtx};
use nora_nn::deploy::{AnalogTransformerLm, DecodeCtx};
use nora_nn::generate::{sample_logits, Sampling};
use nora_nn::{KvCache, LinearId, LinearKind, TransformerLm};
use nora_serve::{AnalogBackend, AnalogKeying, Backend, SlotStep};
use nora_tensor::rng::Rng;
use nora_tensor::Matrix;

use crate::inputs::Inputs;
use crate::report::Report;
use crate::setup::{faulty_tile, Setup, NORA_DEPLOY_SEED};
use crate::stats::median;
use crate::workloads::{DRIFT_INTERVAL, MAX_BATCH};

/// Input stream of the replays (rounds use streams 0, 1, …).
const REPLAY_STREAM: u64 = 1 << 41;
/// Calls per replayed figure.
const REPS: usize = 200;
/// Maintenance sweeps replayed.
const SWEEPS: usize = 5;
/// Samples per timed normal-fill call.
const FILL: usize = 4096;

/// Median seconds of `reps` calls of `run`, each on a fresh input made by
/// `make` outside the timed interval, after one untimed warm-up call.
fn time<S>(reps: usize, mut make: impl FnMut() -> S, mut run: impl FnMut(S)) -> f64 {
    run(make());
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let input = make();
        let t = Instant::now();
        run(input);
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Per-call medians of one maintenance sweep's entry points (seconds).
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceReplay {
    pub sweep: f64,
    pub drift: f64,
    pub recalibrate: f64,
    pub rotate: f64,
}

/// The deployment the layer replays run on: the layer seeds of
/// `AnalogTransformerLm` deployments, so each replayed linear programs the
/// same conductances as the workload's.
fn standalone_linear(setup: &Setup, id: LinearId) -> AnalogLinear {
    let lin = setup.model.linear(id);
    let seed = NORA_DEPLOY_SEED ^ ((id.block as u64 + 1) << 20) ^ ((id.kind as u64 + 1) << 8);
    AnalogLinear::with_smoothing(
        lin.weight.value.clone(),
        Some(lin.bias.value.row(0).to_vec()),
        setup.plan.smoothing_for(id),
        setup.tile.clone(),
        seed,
    )
}

/// Inputs of every analog-mappable linear on one episode's forward.
fn linear_inputs(model: &TransformerLm, tokens: &[usize]) -> Vec<(LinearId, Matrix)> {
    let mut seen = Vec::new();
    model.forward_observed(tokens, &mut |id, x: &Matrix| seen.push((id, x.clone())));
    seen
}

fn id_name(id: LinearId) -> String {
    format!("b{}.{}", id.block, id.kind.name())
}

/// Share of a `nora-nn` call spent in its `nora-cim` linears, from the
/// replays: the linears' summed time over the whole call's time.
#[derive(Debug, Clone, Copy)]
pub struct CimShares {
    /// In one keyed decode step.
    pub keyed: f64,
    /// In one full-sequence episode forward.
    pub forward: f64,
}

/// Times the `nora-serve` backend, `nora-nn`, `nora-cim` and
/// `nora-tensor` entry points, pushing their per-layer metrics.
pub fn layers(setup: &Setup, inputs: &Inputs, report: &mut Report) -> CimShares {
    let model = &setup.model;
    let decode = inputs.requests(REPLAY_STREAM, MAX_BATCH, 3, 13);
    let prefill = inputs.requests(REPLAY_STREAM, MAX_BATCH, 14, 2);
    let episode = inputs.episodes(REPLAY_STREAM, 1).remove(0);
    let context = &episode.tokens[..episode.tokens.len() - 1];

    // Backend rounds: 8 slots decoding one token each on caches holding a
    // 3-token prompt, and 8 slots refilling a 13-token prompt head.
    let mut analog = setup.nora.clone();
    let mut caches: Vec<KvCache> = decode.iter().map(|_| KvCache::new(model)).collect();
    {
        let mut backend = AnalogBackend::with_keying(&mut analog, AnalogKeying::Keyed);
        let mut steps = slot_steps(&decode, &mut caches, |p| (p[2], Some(&p[..2]), 0));
        backend.run_round(&mut steps);
        drop(steps);
        let decode_round = time(
            REPS,
            || caches.clone(),
            |mut cs| {
                let mut steps = slot_steps(&decode, &mut cs, |p| (p[0], None, 3));
                backend.run_round(&mut steps);
            },
        );
        report.metric("serve.decode_round_ms", decode_round * 1e3, "ms");
        let mut scratch: Vec<KvCache> = prefill.iter().map(|_| KvCache::new(model)).collect();
        let prefill_round = time(
            REPS / 4,
            || (),
            |()| {
                let mut steps = slot_steps(&prefill, &mut scratch, |p| (p[13], Some(&p[..13]), 0));
                backend.run_round(&mut steps);
            },
        );
        report.metric("serve.prefill_round_ms", prefill_round * 1e3, "ms");
    }

    // nora-nn: one keyed analog decode step, the digital decode step (the
    // digital floor: LayerNorm, attention, head), sampling, and one
    // episode's full-sequence analog forward.
    let (token, seed) = (decode[0].prompt[0], decode[0].seed);
    let (mut ctx, mut effects) = (DecodeCtx::default(), Vec::new());
    let keyed_step = time(
        REPS,
        || caches[0].clone(),
        |mut c| {
            effects.clear();
            analog.decode_step_keyed(token, &mut c, seed, 3, &mut ctx, &mut effects);
        },
    );
    report.metric("nn.decode_step_keyed_us", keyed_step * 1e6, "us");
    let mut digital_cache = KvCache::new(model);
    let mut logits = Vec::new();
    for &t in &decode[0].prompt {
        logits = model.decode_step(t, &mut digital_cache);
    }
    let digital = time(
        REPS,
        || digital_cache.clone(),
        |mut c| {
            model.decode_step(token, &mut c);
        },
    );
    report.metric("nn.digital_decode_step_us", digital * 1e6, "us");
    let mut rng = Rng::seed_from(seed);
    let sample = time(
        REPS,
        || (),
        |()| {
            std::hint::black_box(sample_logits(&logits, Sampling::Temperature(1.2), &mut rng));
        },
    );
    report.metric("nn.sample_us", sample * 1e6, "us");
    let forward = time(
        REPS / 4,
        || (),
        |()| {
            std::hint::black_box(analog.forward(context));
        },
    );
    report.metric("nn.forward_ms", forward * 1e3, "ms");

    // nora-cim: every linear, keyed single-row decode and full-episode
    // forward, on the inputs it sees in that episode.
    let captured = linear_inputs(model, context);
    let mut keyed_ctx = KeyedCtx::default();
    let mut fx = Vec::new();
    let (mut keyed_sum, mut forward_sum) = (0.0, 0.0);
    for (id, x) in &captured {
        let mut lin = standalone_linear(setup, *id);
        let mut y = vec![0.0f32; lin.d_out()];
        let row = x.row(x.rows() - 1);
        let keyed = time(
            REPS,
            || (),
            |()| {
                fx.clear();
                lin.forward_single_keyed(row, &mut y, seed, 3, &mut keyed_ctx, &mut fx);
            },
        );
        report.metric(format!("cim.keyed_us.{}", id_name(*id)), keyed * 1e6, "us");
        keyed_sum += keyed;
        let full = time(
            REPS / 4,
            || (),
            |()| {
                std::hint::black_box(lin.forward(x));
            },
        );
        report.metric(format!("cim.forward_us.{}", id_name(*id)), full * 1e6, "us");
        forward_sum += full;
    }
    let shares = CimShares {
        keyed: (keyed_sum / keyed_step).min(1.0),
        forward: (forward_sum / forward).min(1.0),
    };

    // nora-tensor: the noise samplers (per sample) and the d48 x d192
    // kernels at decode (one row) and episode (15 rows) shapes.
    let mut buf = vec![0.0f32; FILL];
    let box_muller = time(REPS, || (), |()| rng.fill_normal(&mut buf, 0.0, 1.0));
    report.metric(
        "tensor.fill_normal_ns",
        box_muller * 1e9 / FILL as f64,
        "ns",
    );
    let icdf = time(REPS, || (), |()| rng.fill_normal_icdf(&mut buf, 0.0, 1.0));
    report.metric("tensor.fill_normal_icdf_ns", icdf * 1e9 / FILL as f64, "ns");
    let fc1 = LinearId::new(0, LinearKind::Fc1);
    let w = &model.linear(fc1).weight.value;
    let x = &captured
        .iter()
        .find(|(id, _)| *id == fc1)
        .expect("fc1 input")
        .1;
    let mut out = Vec::new();
    let vecmat = time(
        REPS,
        || (),
        |()| w.vecmat_into(x.row(x.rows() - 1), &mut out),
    );
    report.metric("tensor.vecmat_us", vecmat * 1e6, "us");
    let matmul = time(
        REPS,
        || (),
        |()| {
            std::hint::black_box(x.matmul(w));
        },
    );
    report.metric("tensor.matmul_us", matmul * 1e6, "us");
    shares
}

/// Builds one round's slot steps: `shape` maps a prompt to the step's
/// token, refill and starting position.
fn slot_steps<'a>(
    requests: &'a [nora_serve::GenRequest],
    caches: &'a mut [KvCache],
    shape: impl Fn(&'a [usize]) -> (usize, Option<&'a [usize]>, u64),
) -> Vec<SlotStep<'a>> {
    requests
        .iter()
        .zip(caches.iter_mut())
        .map(|(r, cache)| {
            let (token, refill, pos0) = shape(&r.prompt);
            SlotStep {
                token,
                refill,
                cache,
                logits: Vec::new(),
                decoded: 0,
                noise_seed: r.seed,
                pos0,
            }
        })
        .collect()
}

/// Replays maintenance sweeps — drift catch-up, α̂ recalibration, the
/// suspect scan and one rotation — on a faulty deployment: a clone of
/// `faulty` when the workload has one, else a fresh deployment of the
/// `serve_drift` tile.
pub fn maintenance(setup: &Setup, faulty: Option<&AnalogTransformerLm>) -> MaintenanceReplay {
    let mut analog = match faulty {
        Some(a) => a.clone(),
        None => setup
            .plan
            .deploy(&setup.model, faulty_tile(), NORA_DEPLOY_SEED),
    };
    let first = setup.model.linear_ids()[0];
    let mut backend = AnalogBackend::with_keying(&mut analog, AnalogKeying::Keyed);
    backend.begin_maintenance();
    let (mut sweep, mut drift, mut recal, mut rotate) = (vec![], vec![], vec![], vec![]);
    for k in 1..=SWEEPS {
        let now = k as f64 * DRIFT_INTERVAL;
        let t = Instant::now();
        backend.drift_to(now, DriftCompensation::None);
        let t_drift = t.elapsed().as_secs_f64();
        backend.recalibrate();
        let t_recal = t.elapsed().as_secs_f64();
        let tile = backend
            .suspect_tiles()
            .first()
            .copied()
            .unwrap_or((first, 0));
        let t_scan = t.elapsed().as_secs_f64();
        backend.rotate_tile(tile, now);
        let total = t.elapsed().as_secs_f64();
        drift.push(t_drift);
        recal.push(t_recal - t_drift);
        rotate.push(total - t_scan);
        sweep.push(total);
    }
    MaintenanceReplay {
        sweep: median(&sweep),
        drift: median(&drift),
        recalibrate: median(&recal),
        rotate: median(&rotate),
    }
}
