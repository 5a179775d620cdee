//! Set-up: every run builds its deployments from nothing — trains the model
//! from a fixed seed (no model cache), injects OPT-like outliers,
//! calibrates, builds the λ = 0.5 NORA plan and programs the tiles; the
//! faulty `serve_drift` deployment then passes an acceptance run.

use std::time::Instant;

use nora_cim::{FaultPlan, FaultTolerance, TileConfig};
use nora_core::{calibrate, RescalePlan, SmoothingConfig};
use nora_nn::corpus::{Corpus, CorpusConfig};
use nora_nn::deploy::AnalogTransformerLm;
use nora_nn::trainer::{train, TrainConfig};
use nora_nn::zoo::{inject_outliers, ModelFamily};
use nora_nn::{ModelConfig, TransformerLm};
use nora_tensor::rng::Rng;

use crate::trace::Tracer;

/// The benchmark model: an OPT-like d48 transformer on the vocab-16,
/// 16-token recall corpus.
pub const MODEL: ModelConfig = ModelConfig {
    vocab: 16,
    max_seq: 16,
    d_model: 48,
    heads: 4,
    d_ff: 192,
    layers: 2,
};

/// Training recipe (the zoo's `tiny_spec` recipe).
pub const TRAIN: TrainConfig = TrainConfig {
    steps: 600,
    batch_size: 8,
    lr: 3e-3,
    grad_clip: 1.0,
    warmup: 20,
};

/// Master seed of the model, its corpus and its deployments. Fixed: the
/// workload seed changes the inputs, never the deployment.
pub const MODEL_SEED: u64 = 3;
/// Calibration sequences drawn from the corpus after training.
pub const CALIBRATION_SEQS: usize = 16;
/// Markov text drawn after calibration, from which workload inputs are cut.
pub const TEXT_POOL: usize = 8192;
/// Stuck-cell rate of the `serve_drift` fault plan (dead lines at a tenth
/// of it).
pub const DRIFT_CELL_RATE: f64 = 0.01;
/// Corpus episodes of the faulty deployment's acceptance pass.
pub const ACCEPTANCE_EPISODES: usize = 200;

/// Which deployments a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployments {
    /// Naive and NORA deployments on the paper's tile (`eval_nora`).
    NaiveAndNora,
    /// The NORA deployment on the paper's tile (`serve_decode`,
    /// `serve_prefill`).
    Nora,
    /// The NORA deployment on the paper's tile with a 1 % stuck-cell fault
    /// plan and the protected fault-tolerance ladder (`serve_drift`).
    FaultyNora,
}

/// Everything set-up produced.
pub struct Setup {
    /// The trained, outlier-injected digital model.
    pub model: TransformerLm,
    /// The NORA rescale plan.
    pub plan: RescalePlan,
    /// The analog deployment every workload serves (NORA; faulty for
    /// `serve_drift`).
    pub nora: AnalogTransformerLm,
    /// The naive deployment (`eval_nora` only).
    pub naive: Option<AnalogTransformerLm>,
    /// The tile configuration of `nora`.
    pub tile: TileConfig,
    /// Markov text pool for the workload inputs.
    pub text: Vec<usize>,
}

/// Wall time of one set-up, by phase (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: f64,
    pub train: f64,
    pub calibrate: f64,
    pub plan: f64,
    pub deploy: f64,
}

/// The `serve_drift` tile: the paper's tile with a 1 % stuck-cell fault plan
/// and the protected ladder provisioned with spares for a long horizon.
pub fn faulty_tile() -> TileConfig {
    let mut tolerance = FaultTolerance::protected();
    tolerance.spare_tiles = 4;
    TileConfig::paper_default()
        .with_fault_plan(FaultPlan::uniform(
            DRIFT_CELL_RATE,
            DRIFT_CELL_RATE * 0.1,
            MODEL_SEED ^ 0xfa17,
        ))
        .with_fault_tolerance(tolerance)
}

/// Deployment seeds (fixed, distinct per deployment).
pub const NORA_DEPLOY_SEED: u64 = MODEL_SEED ^ 0xd0;
pub const NAIVE_DEPLOY_SEED: u64 = MODEL_SEED ^ 0xd1;

/// Builds the workload's deployments from nothing, recording each phase as a
/// span when `tracer` is given.
pub fn set_up(which: Deployments, tracer: Option<&Tracer>) -> (Setup, SetupTimes) {
    let start = Instant::now();
    let root = tracer.map(|t| t.open("setup", "bench", None));
    let phase = |name: &'static str, layer: &'static str| tracer.map(|t| t.open(name, layer, None));
    let close = |id: Option<usize>| {
        if let (Some(t), Some(id)) = (tracer, id) {
            t.close(id);
        }
    };
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let span = phase("setup.train", "nora-nn");
    let mut rng = Rng::seed_from(MODEL_SEED);
    let mut corpus = Corpus::new(CorpusConfig::new(
        MODEL.vocab,
        MODEL.max_seq,
        MODEL_SEED ^ 0xc0,
    ));
    let mut model = TransformerLm::new(MODEL, &mut rng);
    train(&mut model, &mut corpus, &TRAIN);
    inject_outliers(
        &mut model,
        &ModelFamily::OptLike.outlier_spec(),
        MODEL_SEED ^ 0xabcd,
    );
    close(span);
    times.train = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let span = phase("setup.calibrate", "nora-core");
    let calib: Vec<Vec<usize>> = (0..CALIBRATION_SEQS)
        .map(|_| corpus.episode().tokens)
        .collect();
    let calibration = calibrate(&model, &calib);
    close(span);
    times.calibrate = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let span = phase("setup.plan", "nora-core");
    let plan = RescalePlan::nora(&model, &calibration, SmoothingConfig::default());
    close(span);
    times.plan = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let span = phase("setup.deploy", "nora-device");
    let tile = match which {
        Deployments::FaultyNora => faulty_tile(),
        _ => TileConfig::paper_default(),
    };
    let mut nora = plan.deploy(&model, tile.clone(), NORA_DEPLOY_SEED);
    let naive = (which == Deployments::NaiveAndNora).then(|| {
        RescalePlan::naive().deploy(&model, TileConfig::paper_default(), NAIVE_DEPLOY_SEED)
    });
    close(span);
    times.deploy = t.elapsed().as_secs_f64();

    if which == Deployments::FaultyNora {
        // Post-deployment acceptance pass: the inline ladder finds and
        // repairs programming defects on fixed corpus episodes, so every
        // run serves the same t = 0 checkpoint whatever its seed.
        let span = phase("setup.acceptance", "nora-cim");
        for ep in corpus.episodes(ACCEPTANCE_EPISODES) {
            nora.predict_next(&ep.tokens[..ep.tokens.len() - 1]);
        }
        close(span);
    }

    let text = corpus.text(TEXT_POOL);
    close(root);
    times.total = start.elapsed().as_secs_f64();
    (
        Setup {
            model,
            plan,
            nora,
            naive,
            tile,
            text,
        },
        times,
    )
}
