//! Convenience runners wiring the model to the pdes kernels.

use pdes::prelude::*;
use topo::{BlockMapping, Topology};

use crate::model::HotPotatoModel;
use crate::stats::NetStats;

/// Run the model on the sequential reference kernel. The engine horizon is
/// derived from the model's configured step count.
pub fn simulate_sequential<T: Topology>(
    model: &HotPotatoModel<T>,
    engine: &EngineConfig,
) -> Result<RunResult<NetStats>, RunError> {
    let mut cfg = engine.clone();
    cfg.end_time = model.end_time();
    run_sequential(model, &cfg)
}

/// Run the model on the optimistic parallel kernel with the paper's
/// rectangular block LP→KP→PE mapping (Section 3.2.3).
pub fn simulate_parallel<T: Topology>(
    model: &HotPotatoModel<T>,
    engine: &EngineConfig,
) -> Result<RunResult<NetStats>, RunError> {
    let mut cfg = engine.clone();
    cfg.end_time = model.end_time();
    // Validate before deriving the block mapping, which asserts on
    // inconsistent PE/KP counts; those must surface as `ConfigInvalid`.
    cfg.validate()?;
    let mapping = BlockMapping::new(model.config().n, cfg.n_kps, cfg.n_pes);
    run_parallel_mapped(model, &cfg, &mapping)
}

/// Run the model on the optimistic kernel using **state saving** instead of
/// reverse computation (the GTW-style baseline; ablation E12). Same results,
/// different rollback machinery.
pub fn simulate_parallel_state_saving<T: Topology>(
    model: &HotPotatoModel<T>,
    engine: &EngineConfig,
) -> Result<RunResult<NetStats>, RunError> {
    let mut cfg = engine.clone();
    cfg.end_time = model.end_time();
    cfg.validate()?;
    let mapping = BlockMapping::new(model.config().n, cfg.n_kps, cfg.n_pes);
    pdes::run_parallel_mapped_state_saving(model, &cfg, &mapping)
}

/// Resume an interrupted parallel run from a checkpoint snapshot, keeping
/// the paper's block LP→KP→PE mapping. The continuation commits exactly the
/// events an uninterrupted run would have committed past the snapshot GVT.
pub fn simulate_resumed<T: Topology>(
    model: &HotPotatoModel<T>,
    engine: &EngineConfig,
    snap: &Snapshot,
) -> Result<RunResult<NetStats>, RunError> {
    let mut cfg = engine.clone();
    cfg.end_time = model.end_time();
    cfg.validate()?;
    let mapping = BlockMapping::new(model.config().n, cfg.n_kps, cfg.n_pes);
    pdes::parallel::run_resumed_mapped(model, &cfg, &mapping, snap)
}

/// Run under the crash-recovery supervisor ([`pdes::ckpt::supervise`]):
/// on a PE crash the newest intact snapshot in
/// [`EngineConfig::checkpoint_dir`] is validated and resumed, falling back
/// to older snapshots (or a cold restart) when files are corrupt.
pub fn simulate_supervised<T: Topology>(
    model: &HotPotatoModel<T>,
    engine: &EngineConfig,
    policy: &SupervisorPolicy,
) -> Result<(RunResult<NetStats>, pdes::ckpt::RecoveryReport), RunError> {
    let mut cfg = engine.clone();
    cfg.end_time = model.end_time();
    supervise(model, &cfg, policy)
}
