//! Typed request / response / event messages and their payload codecs.
//!
//! This module is the single source of truth for what travels inside a
//! frame (the frame envelope itself lives in [`crate::wire`]); the
//! human-readable spec in `docs/PROTOCOL.md` documents the same layouts
//! byte for byte. Encoding is deliberately canonical — one spec value has
//! exactly one byte representation — because the encoded
//! [`StrategySpec`] doubles as the server's cache-key component.

use crate::wire::{Dec, Enc, WireError};
use fastbn_core::{HybridConfig, ParallelMode, PcConfig, Strategy};
use fastbn_data::Dataset;
use fastbn_network::{InferenceError, Posterior, Query};
use fastbn_score::{HillClimbConfig, ScoreKind};
use fastbn_stats::EngineSelect;

/// Frame-kind bytes. Requests are `0x01..=0x3F`, events `0x40..=0x7F`,
/// responses `0x80..=0xDF`, errors `0xE0..`.
pub mod kind {
    /// Request: learn a structure from an inline dataset.
    pub const LEARN: u8 = 0x01;
    /// Request: learn (or reuse) a structure, fit CPTs, calibrate a
    /// junction tree, and cache the fitted model.
    pub const FIT: u8 = 0x02;
    /// Request: answer a batch of posterior queries against a cached
    /// fitted model.
    pub const INFER: u8 = 0x03;
    /// Request: cancel an in-flight job on this connection.
    pub const CANCEL: u8 = 0x04;
    /// Request: liveness + load snapshot (answered inline, never queued).
    pub const HEALTH: u8 = 0x05;
    /// Request: cumulative serving statistics (answered inline).
    pub const STATS: u8 = 0x06;
    /// Request: stop accepting connections and shut the daemon down.
    pub const SHUTDOWN: u8 = 0x07;
    /// Request: a snapshot of the process-wide metrics registry
    /// (answered inline, never queued).
    pub const METRICS: u8 = 0x08;
    /// Request: upload a dataset once and receive its content
    /// fingerprint as a reusable handle (answered inline). Subsequent
    /// `Learn`/`Fit` requests can reference the handle instead of
    /// reshipping the columns (v3).
    pub const DATASET_PUT: u8 = 0x09;

    /// Event: job progress (phase, iteration, score, counters).
    pub const EVENT_PROGRESS: u8 = 0x41;

    /// Response to [`LEARN`].
    pub const LEARN_OK: u8 = 0x81;
    /// Response to [`FIT`].
    pub const FIT_OK: u8 = 0x82;
    /// Response to [`INFER`].
    pub const INFER_OK: u8 = 0x83;
    /// Response to [`CANCEL`].
    pub const CANCEL_OK: u8 = 0x84;
    /// Response to [`HEALTH`].
    pub const HEALTH_OK: u8 = 0x85;
    /// Response to [`STATS`].
    pub const STATS_OK: u8 = 0x86;
    /// Response to [`SHUTDOWN`].
    pub const SHUTDOWN_OK: u8 = 0x87;
    /// Response to [`METRICS`].
    pub const METRICS_OK: u8 = 0x88;
    /// Response to [`DATASET_PUT`].
    pub const DATASET_PUT_OK: u8 = 0x89;

    /// Error response (any request kind).
    pub const ERROR: u8 = 0xE0;
}

/// Error codes carried by an [`kind::ERROR`] frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request payload failed to decode.
    Malformed = 1,
    /// The admission queue is at capacity; retry later.
    Busy = 2,
    /// The job was cancelled before it completed.
    Cancelled = 3,
    /// `Infer` referenced a `model_id` not in the model cache.
    UnknownModel = 4,
    /// The request was structurally valid but semantically unusable
    /// (e.g. a dataset the learners reject).
    BadRequest = 5,
    /// The server failed internally while running the job.
    Internal = 6,
    /// The daemon is shutting down and no longer accepts jobs.
    ShuttingDown = 7,
    /// `Learn`/`Fit` referenced a dataset handle not in the dataset
    /// cache (v3). Re-upload with `DatasetPut` and retry.
    UnknownDataset = 8,
}

impl ErrorCode {
    /// Decode from the wire representation.
    pub fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Busy,
            3 => ErrorCode::Cancelled,
            4 => ErrorCode::UnknownModel,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::Internal,
            7 => ErrorCode::ShuttingDown,
            8 => ErrorCode::UnknownDataset,
            other => return Err(WireError::BadTag(other as u8)),
        })
    }
}

/// An error response: code plus a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct ErrorReply {
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Diagnostic text (never required for dispatch).
    pub message: String,
}

impl ErrorReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u16(self.code as u16).str(&self.message);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let code = ErrorCode::from_u16(d.u16()?)?;
        let message = d.str()?;
        d.finish()?;
        Ok(Self { code, message })
    }
}

// ---------------------------------------------------------------------------
// Dataset

/// Encode a dataset: dims, then per-variable name+arity, then raw
/// column-major values.
pub fn encode_dataset(e: &mut Enc, data: &Dataset) {
    e.u32(data.n_vars() as u32).u64(data.n_samples() as u64);
    for v in 0..data.n_vars() {
        e.str(&data.names()[v]).u8(data.arity(v) as u8);
    }
    for v in 0..data.n_vars() {
        // No per-column length prefix: the length is n_samples by spec.
        for &val in data.column(v) {
            e.u8(val);
        }
    }
}

/// Decode a dataset (validates values against arities via
/// [`Dataset::from_columns`]).
pub fn decode_dataset(d: &mut Dec) -> Result<Dataset, WireError> {
    let n_vars = d.u32()? as usize;
    let n_samples = usize::try_from(d.u64()?).map_err(|_| WireError::OutOfBounds("n_samples"))?;
    // Each variable costs at least 5 payload bytes (a `u32` name length
    // and an arity byte): a count the payload cannot hold is rejected
    // before the name and arity vectors are allocated.
    if n_vars == 0
        || n_vars > 1 << 20
        || n_vars.checked_mul(5).is_none_or(|min| min > d.remaining())
    {
        return Err(WireError::OutOfBounds("n_vars"));
    }
    let mut names = Vec::with_capacity(n_vars);
    let mut arities = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        names.push(d.str()?);
        arities.push(d.u8()?);
    }
    // Every cell is one payload byte: a count the payload cannot hold is
    // rejected before any column is allocated.
    if n_vars
        .checked_mul(n_samples)
        .is_none_or(|cells| cells > d.remaining())
    {
        return Err(WireError::OutOfBounds("n_samples"));
    }
    let mut columns = Vec::with_capacity(n_vars);
    for _ in 0..n_vars {
        columns.push(d.take(n_samples)?.to_vec());
    }
    Dataset::from_columns(names, arities, columns)
        .map_err(|_| WireError::OutOfBounds("dataset contents"))
}

/// How a `Learn`/`Fit` request names its training data (v3): either the
/// full dataset inline, or the `u64` content fingerprint returned by an
/// earlier [`kind::DATASET_PUT`] on the same daemon. Handles are pure
/// content hashes (§7 of the spec), so a client that knows the
/// fingerprint can skip the upload entirely; an unknown handle is
/// answered with [`ErrorCode::UnknownDataset`].
// The size skew vs `Handle` is fine: a `DatasetRef` lives only on the
// request path, moved once from decode into the job.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq)]
pub enum DatasetRef {
    /// The full dataset travels in this request (tag 0).
    Inline(Dataset),
    /// A fingerprint handle from a prior `DatasetPut` (tag 1) — the
    /// request ships 9 bytes instead of the columns.
    Handle(u64),
}

impl DatasetRef {
    /// Encode into `e`: tag byte, then the dataset or the handle.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            DatasetRef::Inline(data) => {
                e.u8(0);
                encode_dataset(e, data);
            }
            DatasetRef::Handle(fp) => {
                e.u8(1).u64(*fp);
            }
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => DatasetRef::Inline(decode_dataset(d)?),
            1 => DatasetRef::Handle(d.u64()?),
            other => return Err(WireError::BadTag(other)),
        })
    }
}

impl From<Dataset> for DatasetRef {
    fn from(data: Dataset) -> Self {
        DatasetRef::Inline(data)
    }
}

// ---------------------------------------------------------------------------
// Strategy specs

fn encode_mode(mode: ParallelMode) -> u8 {
    match mode {
        ParallelMode::Sequential => 0,
        ParallelMode::EdgeLevel => 1,
        ParallelMode::SampleLevel => 2,
        ParallelMode::CiLevel => 3,
    }
}

fn decode_mode(v: u8) -> Result<ParallelMode, WireError> {
    Ok(match v {
        0 => ParallelMode::Sequential,
        1 => ParallelMode::EdgeLevel,
        2 => ParallelMode::SampleLevel,
        3 => ParallelMode::CiLevel,
        other => return Err(WireError::BadTag(other)),
    })
}

fn encode_engine(engine: EngineSelect) -> u8 {
    match engine {
        EngineSelect::Auto => 0,
        EngineSelect::ForceTiled => 1,
        EngineSelect::ForceBitmap => 2,
    }
}

fn decode_engine(v: u8) -> Result<EngineSelect, WireError> {
    Ok(match v {
        0 => EngineSelect::Auto,
        1 => EngineSelect::ForceTiled,
        2 => EngineSelect::ForceBitmap,
        other => return Err(WireError::BadTag(other)),
    })
}

/// Wire form of the constraint-based stage's knobs. Knobs not on the wire
/// (group size, layout, conditioning-set generation, …) take the
/// [`PcConfig::fast_bns`] defaults server-side.
#[derive(Clone, Debug, PartialEq)]
pub struct PcSpec {
    /// CI-test significance level α.
    pub alpha: f64,
    /// Worker threads of the skeleton phase.
    pub threads: u16,
    /// Scheduler for the skeleton phase.
    pub mode: ParallelMode,
    /// Optional cap on the conditioning-set search depth.
    pub max_depth: Option<u32>,
    /// Counting backend (results are identical for any choice).
    pub engine: EngineSelect,
}

impl Default for PcSpec {
    fn default() -> Self {
        let base = PcConfig::fast_bns();
        Self {
            alpha: base.alpha,
            threads: base.threads as u16,
            mode: base.mode,
            max_depth: None,
            engine: base.count_engine,
        }
    }
}

impl PcSpec {
    fn encode(&self, e: &mut Enc) {
        e.f64(self.alpha)
            .u16(self.threads)
            .u8(encode_mode(self.mode));
        match self.max_depth {
            Some(d) => e.u8(1).u32(d),
            None => e.u8(0).u32(0),
        };
        e.u8(encode_engine(self.engine));
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        let alpha = d.f64()?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(WireError::OutOfBounds("alpha"));
        }
        let threads = d.u16()?;
        let mode = decode_mode(d.u8()?)?;
        let has_depth = d.u8()?;
        let depth = d.u32()?;
        let max_depth = match has_depth {
            0 => None,
            1 => Some(depth),
            other => return Err(WireError::BadTag(other)),
        };
        let engine = decode_engine(d.u8()?)?;
        Ok(Self {
            alpha,
            threads,
            mode,
            max_depth,
            engine,
        })
    }

    /// The full server-side configuration this spec denotes.
    pub fn to_config(&self) -> PcConfig {
        let mut cfg = PcConfig::fast_bns()
            .with_mode(self.mode)
            .with_threads(self.threads.max(1) as usize)
            .with_alpha(self.alpha)
            .with_count_engine(self.engine);
        if let Some(d) = self.max_depth {
            cfg = cfg.with_max_depth(d as usize);
        }
        cfg
    }
}

/// Wire form of the score-search stage's knobs. Knobs not on the wire
/// take the [`HillClimbConfig::default`] values server-side.
#[derive(Clone, Debug, PartialEq)]
pub struct HcSpec {
    /// The decomposable score to maximize.
    pub kind: ScoreKind,
    /// Worker threads for delta evaluation.
    pub threads: u16,
    /// Accept bounded non-improving moves when stuck.
    pub tabu_search: bool,
    /// Apply the first improving move instead of the best one.
    pub first_ascent: bool,
    /// Seeded random restarts after the initial climb.
    pub restarts: u32,
    /// Seed for the restart RNG.
    pub seed: u64,
    /// Hard cap on any node's parent count.
    pub max_parents: u16,
    /// Counting backend (results are identical for any choice).
    pub engine: EngineSelect,
}

impl Default for HcSpec {
    fn default() -> Self {
        let base = HillClimbConfig::default();
        Self {
            kind: base.kind,
            threads: base.threads as u16,
            tabu_search: base.tabu_search,
            first_ascent: base.first_ascent,
            restarts: base.restarts as u32,
            seed: base.seed,
            max_parents: base.max_parents as u16,
            engine: base.count_engine,
        }
    }
}

impl HcSpec {
    fn encode(&self, e: &mut Enc) {
        let (tag, param) = match self.kind {
            ScoreKind::Bic => (0u8, 0.0),
            ScoreKind::Aic => (1, 0.0),
            ScoreKind::BDeu { ess } => (2, ess),
            ScoreKind::BDs { ess } => (3, ess),
        };
        e.u8(tag).f64(param).u16(self.threads);
        let flags = (self.tabu_search as u8) | ((self.first_ascent as u8) << 1);
        e.u8(flags)
            .u32(self.restarts)
            .u64(self.seed)
            .u16(self.max_parents)
            .u8(encode_engine(self.engine));
    }

    fn decode(d: &mut Dec) -> Result<Self, WireError> {
        let tag = d.u8()?;
        let param = d.f64()?;
        let kind = match tag {
            0 => ScoreKind::Bic,
            1 => ScoreKind::Aic,
            2 => ScoreKind::BDeu { ess: param },
            3 => ScoreKind::BDs { ess: param },
            other => return Err(WireError::BadTag(other)),
        };
        // `is_nan` check kept explicit: a plain `<= 0.0` would admit NaN.
        if matches!(tag, 2 | 3) && (param.is_nan() || param <= 0.0) {
            return Err(WireError::OutOfBounds("ess"));
        }
        let threads = d.u16()?;
        let flags = d.u8()?;
        if flags & !0b11 != 0 {
            return Err(WireError::OutOfBounds("hc flags"));
        }
        Ok(Self {
            kind,
            threads,
            tabu_search: flags & 1 != 0,
            first_ascent: flags & 2 != 0,
            restarts: d.u32()?,
            seed: d.u64()?,
            max_parents: d.u16()?,
            engine: decode_engine(d.u8()?)?,
        })
    }

    /// The full server-side configuration this spec denotes.
    pub fn to_config(&self) -> HillClimbConfig {
        HillClimbConfig::default()
            .with_kind(self.kind)
            .with_threads(self.threads.max(1) as usize)
            .with_tabu_search(self.tabu_search)
            .with_first_ascent(self.first_ascent)
            .with_restarts(self.restarts as usize)
            .with_seed(self.seed)
            .with_max_parents(self.max_parents.max(1) as usize)
            .with_count_engine(self.engine)
    }
}

/// Which learner family a `Learn`/`Fit` request runs, with its wire-level
/// knobs. The canonical encoding of this spec is also the server's
/// config half of every cache key, so equal specs always share cache
/// entries and distinct specs never collide.
#[derive(Clone, Debug, PartialEq)]
pub enum StrategySpec {
    /// Constraint-based (PC-stable / Fast-BNS).
    PcStable(PcSpec),
    /// Score-based (hill climbing / tabu).
    HillClimb(HcSpec),
    /// Hybrid (MMHC-style: skeleton-restricted climb).
    Hybrid(PcSpec, HcSpec),
}

impl StrategySpec {
    /// Fast-BNS constraint-based learning with `threads` workers.
    pub fn pc(threads: u16) -> Self {
        StrategySpec::PcStable(PcSpec {
            threads,
            ..PcSpec::default()
        })
    }

    /// Default hill climb with `threads` workers.
    pub fn hill_climb(threads: u16) -> Self {
        StrategySpec::HillClimb(HcSpec {
            threads,
            ..HcSpec::default()
        })
    }

    /// Default hybrid learner with `threads` workers in both stages.
    pub fn hybrid(threads: u16) -> Self {
        StrategySpec::Hybrid(
            PcSpec {
                threads,
                ..PcSpec::default()
            },
            HcSpec {
                threads,
                ..HcSpec::default()
            },
        )
    }

    /// Encode into `e`.
    pub fn encode(&self, e: &mut Enc) {
        match self {
            StrategySpec::PcStable(pc) => {
                e.u8(0);
                pc.encode(e);
            }
            StrategySpec::HillClimb(hc) => {
                e.u8(1);
                hc.encode(e);
            }
            StrategySpec::Hybrid(pc, hc) => {
                e.u8(2);
                pc.encode(e);
                hc.encode(e);
            }
        }
    }

    /// Decode from `d`.
    pub fn decode(d: &mut Dec) -> Result<Self, WireError> {
        Ok(match d.u8()? {
            0 => StrategySpec::PcStable(PcSpec::decode(d)?),
            1 => StrategySpec::HillClimb(HcSpec::decode(d)?),
            2 => StrategySpec::Hybrid(PcSpec::decode(d)?, HcSpec::decode(d)?),
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// The canonical byte encoding — the config half of the server's
    /// cache keys.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.into_bytes()
    }

    /// The full server-side [`Strategy`] this spec denotes (wire knobs
    /// applied over the documented defaults).
    pub fn to_strategy(&self) -> Strategy {
        match self {
            StrategySpec::PcStable(pc) => Strategy::PcStable(pc.to_config()),
            StrategySpec::HillClimb(hc) => Strategy::HillClimb(hc.to_config()),
            StrategySpec::Hybrid(pc, hc) => Strategy::Hybrid(HybridConfig {
                pc: pc.to_config(),
                hc: hc.to_config(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests

/// Payload of a [`kind::LEARN`] request.
#[derive(Clone, Debug, PartialEq)]
pub struct LearnRequest {
    /// Which learner family and knobs to run.
    pub strategy: StrategySpec,
    /// The training data — inline or by fingerprint handle (v3).
    pub dataset: DatasetRef,
}

impl LearnRequest {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.strategy.encode(&mut e);
        self.dataset.encode(&mut e);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let strategy = StrategySpec::decode(&mut d)?;
        let dataset = DatasetRef::decode(&mut d)?;
        d.finish()?;
        Ok(Self { strategy, dataset })
    }
}

/// Payload of a [`kind::DATASET_PUT`] request: upload a dataset once,
/// get its content fingerprint back as an upload-once handle.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetPutRequest {
    /// The dataset to cache server-side.
    pub dataset: Dataset,
}

impl DatasetPutRequest {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        encode_dataset(&mut e, &self.dataset);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let dataset = decode_dataset(&mut d)?;
        d.finish()?;
        Ok(Self { dataset })
    }
}

/// Payload of a [`kind::DATASET_PUT_OK`] response. The fingerprint is
/// the same content hash used in every cache key (§7 of the spec), so
/// it is stable across connections and daemon restarts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DatasetPutReply {
    /// The dataset's content fingerprint — pass as
    /// [`DatasetRef::Handle`] in later `Learn`/`Fit` requests.
    pub fingerprint: u64,
    /// Variable count of the uploaded dataset (echo, for sanity checks).
    pub n_vars: u32,
    /// Sample count of the uploaded dataset.
    pub n_samples: u64,
    /// Was an identical dataset already resident? (`true` = this upload
    /// was redundant; the cached copy is reused.)
    pub already_cached: bool,
}

impl DatasetPutReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.fingerprint)
            .u32(self.n_vars)
            .u64(self.n_samples)
            .u8(self.already_cached as u8);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let reply = Self {
            fingerprint: d.u64()?,
            n_vars: d.u32()?,
            n_samples: d.u64()?,
            already_cached: d.u8()? != 0,
        };
        d.finish()?;
        Ok(reply)
    }
}

/// Payload of a [`kind::FIT`] request: learn (or reuse) a structure with
/// `strategy`, fit CPTs with Laplace `smoothing`, calibrate a junction
/// tree with `calibrate_threads` workers, and cache the fitted model.
#[derive(Clone, Debug, PartialEq)]
pub struct FitRequest {
    /// Which learner family and knobs produce the structure.
    pub strategy: StrategySpec,
    /// The training data — inline or by fingerprint handle (v3).
    pub dataset: DatasetRef,
    /// Laplace smoothing pseudo-count (≥ 0).
    pub smoothing: f64,
    /// Worker threads for junction-tree calibration.
    pub calibrate_threads: u16,
}

impl FitRequest {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.strategy.encode(&mut e);
        self.dataset.encode(&mut e);
        e.f64(self.smoothing).u16(self.calibrate_threads);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let strategy = StrategySpec::decode(&mut d)?;
        let dataset = DatasetRef::decode(&mut d)?;
        let smoothing = d.f64()?;
        if smoothing.is_nan() || smoothing < 0.0 {
            return Err(WireError::OutOfBounds("smoothing"));
        }
        let calibrate_threads = d.u16()?;
        d.finish()?;
        Ok(Self {
            strategy,
            dataset,
            smoothing,
            calibrate_threads,
        })
    }
}

/// Payload of a [`kind::INFER`] request: a batch of posterior queries
/// against a fitted model cached by an earlier `Fit`.
#[derive(Clone, Debug, PartialEq)]
pub struct InferRequest {
    /// The model id returned by [`FitReply`].
    pub model_id: u64,
    /// The query batch.
    pub queries: Vec<Query>,
}

impl InferRequest {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.model_id).u32(self.queries.len() as u32);
        for q in &self.queries {
            e.u32(q.target as u32).u32(q.evidence.len() as u32);
            for &(var, state) in &q.evidence {
                e.u32(var as u32).u8(state);
            }
        }
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let model_id = d.u64()?;
        let n = d.u32()? as usize;
        let mut queries = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let target = d.u32()? as usize;
            let n_ev = d.u32()? as usize;
            let mut evidence = Vec::with_capacity(n_ev.min(1 << 16));
            for _ in 0..n_ev {
                let var = d.u32()? as usize;
                let state = d.u8()?;
                evidence.push((var, state));
            }
            queries.push(Query { target, evidence });
        }
        d.finish()?;
        Ok(Self { model_id, queries })
    }
}

/// Payload of a [`kind::CANCEL`] request: the request id of the job to
/// cancel (scoped to the sending connection).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelRequest {
    /// The request id of the in-flight job on this connection.
    pub target_request_id: u32,
}

impl CancelRequest {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.target_request_id);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let target_request_id = d.u32()?;
        d.finish()?;
        Ok(Self { target_request_id })
    }
}

// ---------------------------------------------------------------------------
// Events

/// Job phase reported by a [`ProgressEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobPhase {
    /// Constraint-based skeleton discovery (one event per depth).
    Skeleton = 0,
    /// V-structure + Meek orientation.
    Orientation = 1,
    /// Score-based search (one event per applied move).
    Search = 2,
    /// CPT fitting.
    Fit = 3,
    /// Junction-tree calibration.
    Calibrate = 4,
}

impl JobPhase {
    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            JobPhase::Skeleton => "skeleton",
            JobPhase::Orientation => "orientation",
            JobPhase::Search => "search",
            JobPhase::Fit => "fit",
            JobPhase::Calibrate => "calibrate",
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => JobPhase::Skeleton,
            1 => JobPhase::Orientation,
            2 => JobPhase::Search,
            3 => JobPhase::Fit,
            4 => JobPhase::Calibrate,
            other => return Err(WireError::BadTag(other)),
        })
    }
}

/// Payload of a [`kind::EVENT_PROGRESS`] event, streamed while a job
/// runs. Field meaning depends on the phase: during `Skeleton`,
/// `iteration` is the completed depth and `ci_tests`/`edges` carry that
/// depth's counters; during `Search`, `iteration` is the cumulative
/// applied-move count and `score` the current total score (`ci_tests`/
/// `edges` are 0); phase-entry events carry zeros.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProgressEvent {
    /// The phase the job is in.
    pub phase: JobPhase,
    /// Depth (skeleton) or cumulative applied moves (search); 0 on
    /// phase-entry events.
    pub iteration: u64,
    /// Current total score (search phase; NaN elsewhere).
    pub score: f64,
    /// CI tests performed in the reported depth (skeleton phase).
    pub ci_tests: u64,
    /// Edges removed in the reported depth (skeleton phase).
    pub edges: u64,
}

impl ProgressEvent {
    /// A phase-entry event (zero counters, NaN score).
    pub fn phase_entry(phase: JobPhase) -> Self {
        Self {
            phase,
            iteration: 0,
            score: f64::NAN,
            ci_tests: 0,
            edges: 0,
        }
    }

    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(self.phase as u8)
            .u64(self.iteration)
            .f64(self.score)
            .u64(self.ci_tests)
            .u64(self.edges);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let ev = Self {
            phase: JobPhase::from_u8(d.u8()?)?,
            iteration: d.u64()?,
            score: d.f64()?,
            ci_tests: d.u64()?,
            edges: d.u64()?,
        };
        d.finish()?;
        Ok(ev)
    }
}

// ---------------------------------------------------------------------------
// Replies

/// Per-depth skeleton statistics inside a [`LearnReply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireDepthStats {
    /// The depth `d`.
    pub depth: u32,
    /// Edges present when the depth began.
    pub edges_at_start: u32,
    /// Edges removed during the depth.
    pub edges_removed: u32,
    /// CI tests performed.
    pub ci_tests: u64,
    /// Wall time of the depth, in microseconds.
    pub micros: u64,
}

/// Constraint-stage summary inside a [`LearnReply`].
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WirePcStats {
    /// Per-depth breakdown.
    pub depths: Vec<WireDepthStats>,
    /// Skeleton-phase wall time, microseconds.
    pub skeleton_micros: u64,
    /// Orientation wall time, microseconds.
    pub orientation_micros: u64,
}

/// Search-stage summary inside a [`LearnReply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WireSearchStats {
    /// Moves applied.
    pub iterations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Deltas actually computed.
    pub moves_evaluated: u64,
    /// Candidate moves discarded before evaluation.
    pub moves_pruned: u64,
    /// Deltas served from the maintained table.
    pub moves_carried: u64,
    /// Score-cache hits.
    pub cache_hits: u64,
    /// Score-cache misses.
    pub cache_misses: u64,
    /// Search wall time, microseconds.
    pub micros: u64,
}

/// Payload of a [`kind::LEARN_OK`] response.
#[derive(Clone, Debug, PartialEq)]
pub struct LearnReply {
    /// The server's cache key for this (dataset, strategy) structure —
    /// resending the same request hits the cache.
    pub structure_key: u64,
    /// Was this structure served from the cache?
    pub cache_hit: bool,
    /// Variable count of the learned structure.
    pub n_vars: u32,
    /// Compelled (directed) CPDAG edges.
    pub directed_edges: Vec<(u32, u32)>,
    /// Reversible (undirected) CPDAG edges.
    pub undirected_edges: Vec<(u32, u32)>,
    /// The searched DAG's edges (score-based and hybrid strategies).
    pub dag_edges: Option<Vec<(u32, u32)>>,
    /// Total decomposable score (score-based and hybrid strategies).
    pub score: Option<f64>,
    /// Constraint-stage statistics, when that stage ran.
    pub pc_stats: Option<WirePcStats>,
    /// Search-stage statistics, when that stage ran.
    pub search_stats: Option<WireSearchStats>,
}

fn encode_edges(e: &mut Enc, edges: &[(u32, u32)]) {
    e.u32(edges.len() as u32);
    for &(u, v) in edges {
        e.u32(u).u32(v);
    }
}

fn decode_edges(d: &mut Dec) -> Result<Vec<(u32, u32)>, WireError> {
    let n = d.u32()? as usize;
    let mut edges = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let u = d.u32()?;
        let v = d.u32()?;
        edges.push((u, v));
    }
    Ok(edges)
}

impl LearnReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.structure_key)
            .u8(self.cache_hit as u8)
            .u32(self.n_vars);
        encode_edges(&mut e, &self.directed_edges);
        encode_edges(&mut e, &self.undirected_edges);
        match &self.dag_edges {
            Some(edges) => {
                e.u8(1);
                encode_edges(&mut e, edges);
            }
            None => {
                e.u8(0);
            }
        }
        match self.score {
            Some(s) => e.u8(1).f64(s),
            None => e.u8(0),
        };
        match &self.pc_stats {
            Some(s) => {
                e.u8(1).u32(s.depths.len() as u32);
                for d in &s.depths {
                    e.u32(d.depth)
                        .u32(d.edges_at_start)
                        .u32(d.edges_removed)
                        .u64(d.ci_tests)
                        .u64(d.micros);
                }
                e.u64(s.skeleton_micros).u64(s.orientation_micros);
            }
            None => {
                e.u8(0);
            }
        }
        match &self.search_stats {
            Some(s) => {
                e.u8(1)
                    .u64(s.iterations)
                    .u64(s.restarts)
                    .u64(s.moves_evaluated)
                    .u64(s.moves_pruned)
                    .u64(s.moves_carried)
                    .u64(s.cache_hits)
                    .u64(s.cache_misses)
                    .u64(s.micros);
            }
            None => {
                e.u8(0);
            }
        }
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let structure_key = d.u64()?;
        let cache_hit = d.u8()? != 0;
        let n_vars = d.u32()?;
        let directed_edges = decode_edges(&mut d)?;
        let undirected_edges = decode_edges(&mut d)?;
        let dag_edges = match d.u8()? {
            0 => None,
            1 => Some(decode_edges(&mut d)?),
            other => return Err(WireError::BadTag(other)),
        };
        let score = match d.u8()? {
            0 => None,
            1 => Some(d.f64()?),
            other => return Err(WireError::BadTag(other)),
        };
        let pc_stats = match d.u8()? {
            0 => None,
            1 => {
                let n = d.u32()? as usize;
                let mut depths = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    depths.push(WireDepthStats {
                        depth: d.u32()?,
                        edges_at_start: d.u32()?,
                        edges_removed: d.u32()?,
                        ci_tests: d.u64()?,
                        micros: d.u64()?,
                    });
                }
                Some(WirePcStats {
                    depths,
                    skeleton_micros: d.u64()?,
                    orientation_micros: d.u64()?,
                })
            }
            other => return Err(WireError::BadTag(other)),
        };
        let search_stats = match d.u8()? {
            0 => None,
            1 => Some(WireSearchStats {
                iterations: d.u64()?,
                restarts: d.u64()?,
                moves_evaluated: d.u64()?,
                moves_pruned: d.u64()?,
                moves_carried: d.u64()?,
                cache_hits: d.u64()?,
                cache_misses: d.u64()?,
                micros: d.u64()?,
            }),
            other => return Err(WireError::BadTag(other)),
        };
        d.finish()?;
        Ok(Self {
            structure_key,
            cache_hit,
            n_vars,
            directed_edges,
            undirected_edges,
            dag_edges,
            score,
            pc_stats,
            search_stats,
        })
    }
}

/// Payload of a [`kind::FIT_OK`] response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FitReply {
    /// Handle for `Infer` requests; stable across identical `Fit`
    /// requests (it is the cache key).
    pub model_id: u64,
    /// Was the fitted model served from the cache?
    pub cache_hit: bool,
    /// Variable count of the fitted network.
    pub n_vars: u32,
    /// Edge count of the fitted DAG.
    pub n_edges: u32,
    /// Cliques in the calibrated junction tree.
    pub n_cliques: u32,
    /// Largest clique size in variables (treewidth + 1).
    pub width: u32,
    /// Largest clique table in cells.
    pub max_clique_cells: u64,
    /// Wall time of CPT fitting, microseconds.
    pub fit_micros: u64,
    /// Wall time of calibration, microseconds.
    pub calibrate_micros: u64,
}

impl FitReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.model_id)
            .u8(self.cache_hit as u8)
            .u32(self.n_vars)
            .u32(self.n_edges)
            .u32(self.n_cliques)
            .u32(self.width)
            .u64(self.max_clique_cells)
            .u64(self.fit_micros)
            .u64(self.calibrate_micros);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let reply = Self {
            model_id: d.u64()?,
            cache_hit: d.u8()? != 0,
            n_vars: d.u32()?,
            n_edges: d.u32()?,
            n_cliques: d.u32()?,
            width: d.u32()?,
            max_clique_cells: d.u64()?,
            fit_micros: d.u64()?,
            calibrate_micros: d.u64()?,
        };
        d.finish()?;
        Ok(reply)
    }
}

/// Payload of a [`kind::INFER_OK`] response: one result per query, in
/// request order.
#[derive(Clone, Debug, PartialEq)]
pub struct InferReply {
    /// Per-query posteriors (or the per-query inference error).
    pub results: Vec<Result<Posterior, InferenceError>>,
}

impl InferReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.results.len() as u32);
        for r in &self.results {
            match r {
                Ok(p) => {
                    e.u8(0).u32(p.target as u32).u32(p.probs.len() as u32);
                    for &prob in &p.probs {
                        e.f64(prob);
                    }
                }
                Err(InferenceError::ImpossibleEvidence) => {
                    e.u8(1);
                }
            }
        }
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let n = d.u32()? as usize;
        let mut results = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            match d.u8()? {
                0 => {
                    let target = d.u32()? as usize;
                    let n_probs = d.u32()? as usize;
                    let mut probs = Vec::with_capacity(n_probs.min(1 << 16));
                    for _ in 0..n_probs {
                        probs.push(d.f64()?);
                    }
                    results.push(Ok(Posterior { target, probs }));
                }
                1 => results.push(Err(InferenceError::ImpossibleEvidence)),
                other => return Err(WireError::BadTag(other)),
            }
        }
        d.finish()?;
        Ok(Self { results })
    }
}

/// Payload of a [`kind::CANCEL_OK`] response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CancelReply {
    /// Did the target request id name a job still in flight on this
    /// connection? (`false` = already finished, or never existed.)
    pub found: bool,
}

impl CancelReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(self.found as u8);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let found = d.u8()? != 0;
        d.finish()?;
        Ok(Self { found })
    }
}

/// Payload of a [`kind::HEALTH_OK`] response — a cheap liveness + load
/// snapshot, always answered inline (never queued behind jobs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthReply {
    /// The protocol version the server speaks.
    pub protocol_version: u8,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Jobs currently executing.
    pub jobs_running: u32,
    /// Jobs admitted but not yet running.
    pub jobs_queued: u32,
    /// Admission-queue capacity.
    pub queue_capacity: u32,
    /// Requests rejected with `Busy` since daemon start (v2).
    pub busy_rejections: u64,
}

impl HealthReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u8(self.protocol_version)
            .u64(self.uptime_ms)
            .u32(self.jobs_running)
            .u32(self.jobs_queued)
            .u32(self.queue_capacity)
            .u64(self.busy_rejections);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let reply = Self {
            protocol_version: d.u8()?,
            uptime_ms: d.u64()?,
            jobs_running: d.u32()?,
            jobs_queued: d.u32()?,
            queue_capacity: d.u32()?,
            busy_rejections: d.u64()?,
        };
        d.finish()?;
        Ok(reply)
    }
}

/// Payload of a [`kind::STATS_OK`] response — cumulative counters since
/// daemon start.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct StatsReply {
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
    /// Jobs admitted to the queue.
    pub jobs_accepted: u64,
    /// Jobs that ran to completion (including failed ones).
    pub jobs_completed: u64,
    /// Jobs that ended via cancellation.
    pub jobs_cancelled: u64,
    /// Requests rejected with `Busy`.
    pub busy_rejections: u64,
    /// Structure-cache hits.
    pub structure_hits: u64,
    /// Structure-cache misses (fresh learns).
    pub structure_misses: u64,
    /// Model-cache hits.
    pub model_hits: u64,
    /// Model-cache misses (fresh fit+calibrate).
    pub model_misses: u64,
    /// Cumulative wall time in learn jobs, microseconds.
    pub learn_micros: u64,
    /// Cumulative wall time in fit jobs, microseconds.
    pub fit_micros: u64,
    /// Cumulative wall time in infer jobs, microseconds.
    pub infer_micros: u64,
    /// Posterior queries answered.
    pub queries_answered: u64,
    /// Hill-climb deltas actually computed, summed over learn jobs (v2).
    pub moves_evaluated: u64,
    /// Candidate moves discarded before evaluation, summed over learn
    /// jobs (v2).
    pub moves_pruned: u64,
    /// Deltas served from the maintained table, summed over learn jobs
    /// (v2).
    pub moves_carried: u64,
    /// Count queries answered by the tiled engine, process-wide (v2).
    pub engine_tiled_picks: u64,
    /// Count queries answered by the bitmap engine, process-wide (v2).
    pub engine_bitmap_picks: u64,
    /// Dataset-cache hits — handle lookups that found their dataset
    /// resident (v3).
    pub dataset_hits: u64,
    /// Dataset-cache misses — handle lookups answered with
    /// `UnknownDataset` (v3).
    pub dataset_misses: u64,
    /// Entries evicted from the structure/model/dataset caches since
    /// daemon start (v3).
    pub cache_evictions: u64,
    /// Estimated resident bytes across the three server caches (v3).
    pub cache_bytes: u64,
    /// Active SIMD popcount kernel tier: 0 = scalar, 1 = AVX2,
    /// 2 = AVX-512 (v4; mirrors the `fastbn.stats.simd.kernel` gauge).
    pub simd_kernel: u8,
    /// Bitmap-engine table fills served by the scalar kernels (v4).
    pub simd_scalar_fills: u64,
    /// Bitmap-engine table fills served by the AVX2 kernels (v4).
    pub simd_avx2_fills: u64,
    /// Bitmap-engine table fills served by the AVX-512 kernels (v4).
    pub simd_avx512_fills: u64,
    /// Jobs currently executing.
    pub jobs_running: u32,
    /// Jobs admitted but not yet running.
    pub jobs_queued: u32,
}

impl StatsReply {
    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.uptime_ms)
            .u64(self.jobs_accepted)
            .u64(self.jobs_completed)
            .u64(self.jobs_cancelled)
            .u64(self.busy_rejections)
            .u64(self.structure_hits)
            .u64(self.structure_misses)
            .u64(self.model_hits)
            .u64(self.model_misses)
            .u64(self.learn_micros)
            .u64(self.fit_micros)
            .u64(self.infer_micros)
            .u64(self.queries_answered)
            .u64(self.moves_evaluated)
            .u64(self.moves_pruned)
            .u64(self.moves_carried)
            .u64(self.engine_tiled_picks)
            .u64(self.engine_bitmap_picks)
            .u64(self.dataset_hits)
            .u64(self.dataset_misses)
            .u64(self.cache_evictions)
            .u64(self.cache_bytes)
            .u8(self.simd_kernel)
            .u64(self.simd_scalar_fills)
            .u64(self.simd_avx2_fills)
            .u64(self.simd_avx512_fills)
            .u32(self.jobs_running)
            .u32(self.jobs_queued);
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let reply = Self {
            uptime_ms: d.u64()?,
            jobs_accepted: d.u64()?,
            jobs_completed: d.u64()?,
            jobs_cancelled: d.u64()?,
            busy_rejections: d.u64()?,
            structure_hits: d.u64()?,
            structure_misses: d.u64()?,
            model_hits: d.u64()?,
            model_misses: d.u64()?,
            learn_micros: d.u64()?,
            fit_micros: d.u64()?,
            infer_micros: d.u64()?,
            queries_answered: d.u64()?,
            moves_evaluated: d.u64()?,
            moves_pruned: d.u64()?,
            moves_carried: d.u64()?,
            engine_tiled_picks: d.u64()?,
            engine_bitmap_picks: d.u64()?,
            dataset_hits: d.u64()?,
            dataset_misses: d.u64()?,
            cache_evictions: d.u64()?,
            cache_bytes: d.u64()?,
            simd_kernel: d.u8()?,
            simd_scalar_fills: d.u64()?,
            simd_avx2_fills: d.u64()?,
            simd_avx512_fills: d.u64()?,
            jobs_running: d.u32()?,
            jobs_queued: d.u32()?,
        };
        d.finish()?;
        Ok(reply)
    }
}

/// One histogram inside a [`MetricsReply`]: interval counts per bucket
/// plus the running sum, exactly as the registry snapshot holds them
/// (not Prometheus-cumulative; the renderer does that conversion).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireHistogram {
    /// Dotted registry name (e.g. `fastbn.serve.request.learn_us`).
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Upper bounds of the finite buckets, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the +Inf overflow bucket).
    pub buckets: Vec<u64>,
}

/// Payload of a [`kind::METRICS_OK`] response — a point-in-time snapshot
/// of the daemon's process-wide metrics registry. Names are sorted
/// (BTreeMap order), so two snapshots of the same registry are
/// byte-comparable.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct MetricsReply {
    /// Monotone counters, `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges, `(name, value)`.
    pub gauges: Vec<(String, i64)>,
    /// Latency / size distributions.
    pub histograms: Vec<WireHistogram>,
}

impl MetricsReply {
    /// Build from a registry snapshot.
    pub fn from_snapshot(snap: &fastbn_obs::Snapshot) -> Self {
        Self {
            counters: snap.counters.clone(),
            gauges: snap.gauges.clone(),
            histograms: snap
                .histograms
                .iter()
                .map(|h| WireHistogram {
                    name: h.name.clone(),
                    count: h.count,
                    sum: h.sum,
                    bounds: h.bounds.clone(),
                    buckets: h.buckets.clone(),
                })
                .collect(),
        }
    }

    /// Convert back into a registry snapshot (for rendering client-side
    /// with [`fastbn_obs::render_prometheus`]).
    pub fn to_snapshot(&self) -> fastbn_obs::Snapshot {
        fastbn_obs::Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|h| fastbn_obs::HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count,
                    sum: h.sum,
                    bounds: h.bounds.clone(),
                    buckets: h.buckets.clone(),
                })
                .collect(),
        }
    }

    /// Encode to payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.counters.len() as u32);
        for (name, v) in &self.counters {
            e.str(name).u64(*v);
        }
        e.u32(self.gauges.len() as u32);
        for (name, v) in &self.gauges {
            e.str(name).u64(*v as u64);
        }
        e.u32(self.histograms.len() as u32);
        for h in &self.histograms {
            e.str(&h.name).u64(h.count).u64(h.sum);
            e.u32(h.bounds.len() as u32);
            for &b in &h.bounds {
                e.u64(b);
            }
            // No bucket count on the wire: it is bounds.len() + 1 by spec.
            for &b in &h.buckets {
                e.u64(b);
            }
        }
        e.into_bytes()
    }

    /// Decode from payload bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(payload);
        let n_counters = d.u32()? as usize;
        if n_counters > 1 << 20 {
            return Err(WireError::OutOfBounds("n_counters"));
        }
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push((d.str()?, d.u64()?));
        }
        let n_gauges = d.u32()? as usize;
        if n_gauges > 1 << 20 {
            return Err(WireError::OutOfBounds("n_gauges"));
        }
        let mut gauges = Vec::with_capacity(n_gauges);
        for _ in 0..n_gauges {
            gauges.push((d.str()?, d.u64()? as i64));
        }
        let n_hists = d.u32()? as usize;
        if n_hists > 1 << 20 {
            return Err(WireError::OutOfBounds("n_histograms"));
        }
        let mut histograms = Vec::with_capacity(n_hists);
        for _ in 0..n_hists {
            let name = d.str()?;
            let count = d.u64()?;
            let sum = d.u64()?;
            let n_bounds = d.u32()? as usize;
            if n_bounds > 1 << 12 {
                return Err(WireError::OutOfBounds("n_bounds"));
            }
            let mut bounds = Vec::with_capacity(n_bounds);
            for _ in 0..n_bounds {
                bounds.push(d.u64()?);
            }
            let mut buckets = Vec::with_capacity(n_bounds + 1);
            for _ in 0..n_bounds + 1 {
                buckets.push(d.u64()?);
            }
            histograms.push(WireHistogram {
                name,
                count,
                sum,
                bounds,
                buckets,
            });
        }
        d.finish()?;
        Ok(Self {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        Dataset::from_columns(
            vec!["a".into(), "b".into()],
            vec![2, 3],
            vec![vec![0, 1, 1, 0], vec![2, 0, 1, 2]],
        )
        .unwrap()
    }

    #[test]
    fn dataset_round_trips() {
        let data = sample_dataset();
        let mut e = Enc::new();
        encode_dataset(&mut e, &data);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = decode_dataset(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn strategy_specs_round_trip_and_are_canonical() {
        for spec in [
            StrategySpec::pc(2),
            StrategySpec::hill_climb(4),
            StrategySpec::hybrid(1),
            StrategySpec::HillClimb(HcSpec {
                kind: ScoreKind::BDeu { ess: 2.5 },
                tabu_search: true,
                ..HcSpec::default()
            }),
        ] {
            let bytes = spec.canonical_bytes();
            let mut d = Dec::new(&bytes);
            let back = StrategySpec::decode(&mut d).unwrap();
            d.finish().unwrap();
            assert_eq!(back, spec);
            // Canonical: re-encoding the decoded value is byte-identical.
            assert_eq!(back.canonical_bytes(), bytes);
        }
    }

    #[test]
    fn learn_request_round_trips() {
        for dataset in [
            DatasetRef::Inline(sample_dataset()),
            DatasetRef::Handle(0xFEED_F00D_DEAD_BEEF),
        ] {
            let req = LearnRequest {
                strategy: StrategySpec::hybrid(2),
                dataset,
            };
            let back = LearnRequest::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn fit_request_round_trips() {
        for dataset in [DatasetRef::Inline(sample_dataset()), DatasetRef::Handle(42)] {
            let req = FitRequest {
                strategy: StrategySpec::pc(1),
                dataset,
                smoothing: 0.5,
                calibrate_threads: 2,
            };
            let back = FitRequest::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn handle_requests_are_small() {
        // The whole point of upload-once handles: a by-handle learn
        // request must not scale with the dataset (9 bytes of dataset
        // reference vs names + arities + n_vars × n_samples inline).
        let strategy = StrategySpec::pc(1);
        let inline = LearnRequest {
            strategy: strategy.clone(),
            dataset: DatasetRef::Inline(sample_dataset()),
        }
        .encode();
        let by_handle = LearnRequest {
            strategy: strategy.clone(),
            dataset: DatasetRef::Handle(1),
        }
        .encode();
        assert_eq!(by_handle.len(), strategy.canonical_bytes().len() + 9);
        assert!(by_handle.len() < inline.len());
    }

    #[test]
    fn dataset_put_round_trips() {
        let req = DatasetPutRequest {
            dataset: sample_dataset(),
        };
        assert_eq!(DatasetPutRequest::decode(&req.encode()).unwrap(), req);

        let reply = DatasetPutReply {
            fingerprint: 0xABCD_EF01_2345_6789,
            n_vars: 2,
            n_samples: 4,
            already_cached: true,
        };
        assert_eq!(DatasetPutReply::decode(&reply.encode()).unwrap(), reply);
    }

    #[test]
    fn infer_request_round_trips() {
        let req = InferRequest {
            model_id: 0xDEAD_BEEF,
            queries: vec![
                Query::marginal(3),
                Query::with_evidence(1, vec![(0, 2), (4, 0)]),
            ],
        };
        let back = InferRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn replies_round_trip() {
        let learn = LearnReply {
            structure_key: 42,
            cache_hit: true,
            n_vars: 5,
            directed_edges: vec![(0, 1), (2, 3)],
            undirected_edges: vec![(1, 4)],
            dag_edges: Some(vec![(0, 1)]),
            score: Some(-123.5),
            pc_stats: Some(WirePcStats {
                depths: vec![WireDepthStats {
                    depth: 0,
                    edges_at_start: 10,
                    edges_removed: 4,
                    ci_tests: 10,
                    micros: 1500,
                }],
                skeleton_micros: 2000,
                orientation_micros: 30,
            }),
            search_stats: Some(WireSearchStats {
                iterations: 7,
                micros: 900,
                ..WireSearchStats::default()
            }),
        };
        assert_eq!(LearnReply::decode(&learn.encode()).unwrap(), learn);

        let fit = FitReply {
            model_id: 99,
            cache_hit: false,
            n_vars: 5,
            n_edges: 6,
            n_cliques: 4,
            width: 3,
            max_clique_cells: 64,
            fit_micros: 120,
            calibrate_micros: 340,
        };
        assert_eq!(FitReply::decode(&fit.encode()).unwrap(), fit);

        let infer = InferReply {
            results: vec![
                Ok(Posterior {
                    target: 2,
                    probs: vec![0.25, 0.75],
                }),
                Err(InferenceError::ImpossibleEvidence),
            ],
        };
        assert_eq!(InferReply::decode(&infer.encode()).unwrap(), infer);

        let health = HealthReply {
            protocol_version: 2,
            uptime_ms: 12345,
            jobs_running: 1,
            jobs_queued: 2,
            queue_capacity: 8,
            busy_rejections: 4,
        };
        assert_eq!(HealthReply::decode(&health.encode()).unwrap(), health);

        let stats = StatsReply {
            uptime_ms: 1,
            jobs_accepted: 2,
            busy_rejections: 3,
            queries_answered: 1000,
            moves_evaluated: 500,
            moves_pruned: 400,
            moves_carried: 300,
            engine_tiled_picks: 20,
            engine_bitmap_picks: 10,
            dataset_hits: 6,
            dataset_misses: 1,
            cache_evictions: 3,
            cache_bytes: 4096,
            simd_kernel: 2,
            simd_scalar_fills: 7,
            simd_avx2_fills: 8,
            simd_avx512_fills: 9,
            ..StatsReply::default()
        };
        assert_eq!(StatsReply::decode(&stats.encode()).unwrap(), stats);

        let err = ErrorReply {
            code: ErrorCode::Busy,
            message: "queue full".into(),
        };
        assert_eq!(ErrorReply::decode(&err.encode()).unwrap(), err);

        let cancel = CancelReply { found: true };
        assert_eq!(CancelReply::decode(&cancel.encode()).unwrap(), cancel);
    }

    #[test]
    fn metrics_reply_round_trips() {
        let reply = MetricsReply {
            counters: vec![
                ("fastbn.parallel.steal.steals".into(), 42),
                ("fastbn.score.cache.hits".into(), 7),
            ],
            gauges: vec![("fastbn.parallel.jobs.queue_depth".into(), -1)],
            histograms: vec![WireHistogram {
                name: "fastbn.serve.request.learn_us".into(),
                count: 3,
                sum: 600,
                bounds: vec![100, 1000],
                buckets: vec![1, 2, 0],
            }],
        };
        assert_eq!(MetricsReply::decode(&reply.encode()).unwrap(), reply);
        assert_eq!(
            MetricsReply::decode(&MetricsReply::default().encode()).unwrap(),
            MetricsReply::default()
        );

        // The snapshot round trip preserves everything the renderer needs.
        let snap = reply.to_snapshot();
        assert_eq!(MetricsReply::from_snapshot(&snap), reply);
        let text = fastbn_obs::render_prometheus(&snap);
        assert!(text.contains("fastbn_parallel_steal_steals 42"));
    }

    #[test]
    fn progress_events_round_trip() {
        let ev = ProgressEvent {
            phase: JobPhase::Search,
            iteration: 17,
            score: -4411.25,
            ci_tests: 0,
            edges: 0,
        };
        assert_eq!(ProgressEvent::decode(&ev.encode()).unwrap(), ev);
        let entry = ProgressEvent::phase_entry(JobPhase::Calibrate);
        let back = ProgressEvent::decode(&entry.encode()).unwrap();
        assert_eq!(back.phase, JobPhase::Calibrate);
        assert!(back.score.is_nan());
    }

    #[test]
    fn bad_tags_are_rejected() {
        let mut e = Enc::new();
        e.u8(9); // no such strategy tag
        let bytes = e.into_bytes();
        assert!(StrategySpec::decode(&mut Dec::new(&bytes)).is_err());
        assert!(ErrorCode::from_u16(0).is_err());
        assert!(ErrorCode::from_u16(9).is_err());
        assert_eq!(ErrorCode::from_u16(8).unwrap(), ErrorCode::UnknownDataset);
        assert!(JobPhase::from_u8(9).is_err());
        let mut e = Enc::new();
        e.u8(2); // no such dataset-ref tag
        let bytes = e.into_bytes();
        assert!(DatasetRef::decode(&mut Dec::new(&bytes)).is_err());
        // Mode tag 4 (the retired work-stealing scheduler) is unassigned.
        assert_eq!(decode_mode(3), Ok(ParallelMode::CiLevel));
        assert_eq!(decode_mode(4), Err(WireError::BadTag(4)));
    }

    #[test]
    fn oversized_sample_count_is_rejected_before_allocating() {
        // A short payload that declares 2^44 samples: decoding must fail
        // on the size check, not abort on a 16 TiB column allocation.
        let mut e = Enc::new();
        e.u32(1).u64(1 << 44).str("a").u8(2).u8(0);
        let bytes = e.into_bytes();
        assert_eq!(
            decode_dataset(&mut Dec::new(&bytes)),
            Err(WireError::OutOfBounds("n_samples"))
        );
        // n_vars × n_samples overflowing usize is rejected the same way.
        let mut e = Enc::new();
        e.u32(2).u64(u64::MAX).str("a").u8(2).str("b").u8(2);
        let bytes = e.into_bytes();
        assert!(decode_dataset(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn oversized_variable_count_is_rejected_before_allocating() {
        // 12 bytes: n_vars = 2^20 (within the cap) and n_samples, but no
        // room for a single name or arity.
        let mut e = Enc::new();
        e.u32(1 << 20).u64(1);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 12);
        assert_eq!(
            decode_dataset(&mut Dec::new(&bytes)),
            Err(WireError::OutOfBounds("n_vars"))
        );
    }

    #[test]
    fn specs_map_to_full_configs() {
        let StrategySpec::Hybrid(pc, hc) = StrategySpec::hybrid(3) else {
            unreachable!()
        };
        let pc_cfg = pc.to_config();
        assert_eq!(pc_cfg.threads, 3);
        assert_eq!(pc_cfg.mode, ParallelMode::CiLevel);
        let hc_cfg = hc.to_config();
        assert_eq!(hc_cfg.threads, 3);
        assert_eq!(hc_cfg.kind, ScoreKind::Bic);
        match StrategySpec::pc(2).to_strategy() {
            Strategy::PcStable(cfg) => assert_eq!(cfg.threads, 2),
            _ => panic!("wrong family"),
        }
    }
}
