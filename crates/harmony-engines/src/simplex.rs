//! The existing discrete Nelder-Mead kernel, ported behind
//! [`SearchEngine`].
//!
//! The port is a thin delegation to [`TuningSession`] — the engine owns
//! a session and forwards every trait method — so its trajectory is
//! bit-identical to [`Tuner::run`] by construction (and the integration
//! suite pins that equality, so the port can never silently drift).

use crate::{EngineError, SearchEngine};
use harmony::history::RunHistory;
use harmony::kernel::SimplexOptions;
use harmony::tuner::{TrainingMode, Tuner, TuningOptions, TuningSession, WARM_START_REPLAY};
use harmony_space::{Configuration, ParameterSpace};

/// The discrete simplex kernel as a [`SearchEngine`].
#[derive(Debug, Clone)]
pub struct SimplexEngine {
    simplex: SimplexOptions,
    session: TuningSession,
}

impl SimplexEngine {
    /// Cold-start engine with default simplex coefficients.
    pub fn new(space: ParameterSpace, options: TuningOptions) -> Self {
        Self::with_simplex_options(space, options, SimplexOptions::default())
    }

    /// Cold-start engine with custom reflection/expansion/contraction/
    /// shrink coefficients (the engine's tunable hyperparameters).
    pub fn with_simplex_options(
        space: ParameterSpace,
        options: TuningOptions,
        simplex: SimplexOptions,
    ) -> Self {
        let session = Tuner::new(space, options).session_with_options(simplex);
        SimplexEngine { simplex, session }
    }
}

impl SearchEngine for SimplexEngine {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn space(&self) -> &ParameterSpace {
        self.session.space()
    }

    fn next_config(&mut self) -> Option<Configuration> {
        self.session.next_config()
    }

    fn observe(&mut self, performance: f64) -> Result<(), EngineError> {
        self.session.observe(performance).map_err(EngineError::from)
    }

    fn next_batch(&mut self) -> Vec<Configuration> {
        self.session.next_batch()
    }

    fn observe_batch(&mut self, performances: &[f64]) -> Result<usize, EngineError> {
        self.session
            .observe_batch(performances)
            .map_err(EngineError::from)
    }

    fn is_done(&self) -> bool {
        self.session.is_done()
    }

    fn converged(&self) -> bool {
        self.session.converged()
    }

    fn iterations(&self) -> usize {
        self.session.iterations()
    }

    fn best(&self) -> Option<(Configuration, f64)> {
        self.session.best().map(|(c, p)| (c.clone(), p))
    }

    fn training_iterations(&self) -> usize {
        self.session.training_iterations()
    }

    /// Rebuild the session trained on the prior run, replaying
    /// [`WARM_START_REPLAY`] virtual iterations (§4.2). Discards any
    /// live measurements already observed, so call before the first
    /// proposal.
    ///
    /// The trained kernel starts from the history's diverse seeds with
    /// *default* coefficients: seeding computes kernel state eagerly,
    /// before custom coefficients could take effect, so a warm start
    /// deliberately does not combine with hyper-tuned coefficients.
    fn warm_start(&mut self, history: &RunHistory) {
        let tuner = Tuner::new(self.session.space().clone(), self.session.options().clone());
        self.session = if history.records.is_empty() {
            tuner.session_with_options(self.simplex)
        } else {
            tuner.session_trained(history, TrainingMode::Replay(WARM_START_REPLAY))
        };
    }
}
