//! Seeded input generation. Everything the daemon receives — the prior
//! experience it loads, every session's RSL, characteristics, budget and
//! engine, and the objective the client measures — is a pure function of
//! the workload, the seed and the session number.

use crate::Workload;
use harmony::history::{DataAnalyzer, ExperienceDb};
use harmony::tuner::{Tuner, TuningOptions};
use harmony_space::{parse_rsl, write_rsl, Configuration};
use harmony_websim::{webservice_space, Fidelity, WebServiceSystem, WorkloadMix};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Characteristics farther apart than this never match (the analyzer's
/// gate). Blended TPC-W observations sit within a few hundredths of
/// their nearest prior run; the bypass workloads draw points a few units
/// apart, so their sessions always start cold.
pub const MATCH_GATE: f64 = 0.5;

/// Requests sampled per `WorkloadMix::observe` probe.
const OBSERVE_REQUESTS: usize = 2000;

/// Live-measurement budget of a prior run in the warm-start snapshot.
const PRIOR_BUDGET: usize = 20;

/// Parameters the bypass workloads add beyond websim's ten.
const EXTRA_PARAMS: usize = 22;

/// How large a run is: prior experience, session budgets, sessions per
/// round and the number of set-ups the benchmark times.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Prior websim tuning runs in the warm-start snapshot.
    pub prior_runs: usize,
    /// Live budget of a long-session session.
    pub long_budget: usize,
    /// Live budget of a replicated session.
    pub ring_budget: usize,
    /// Sessions per round of warm-start.
    pub warm_round: usize,
    /// Sessions per round of long-session.
    pub long_round: usize,
    /// Sessions per round of replicated.
    pub ring_round: usize,
    /// Least set-ups timed per run of warm-start, each a full snapshot
    /// load (`setup_s` is their median).
    pub warm_setups: usize,
    /// Least set-ups timed per run of the workloads that start empty,
    /// which take about a millisecond each and need more for a steady
    /// median.
    pub empty_setups: usize,
    /// Sessions replayed layer by layer in a traced run.
    pub replayed: usize,
}

impl Scale {
    /// The size the benchmark measures at.
    pub const FULL: Scale = Scale {
        prior_runs: 200,
        long_budget: 200,
        ring_budget: 12,
        warm_round: 96,
        long_round: 64,
        ring_round: 24,
        warm_setups: 3,
        empty_setups: 15,
        replayed: 12,
    };

    /// A seconds-long run for the self-test.
    pub const SMOKE: Scale = Scale {
        prior_runs: 12,
        long_budget: 40,
        ring_budget: 8,
        warm_round: 6,
        long_round: 4,
        ring_round: 4,
        warm_setups: 1,
        empty_setups: 1,
        replayed: 3,
    };

    /// Sessions in one round of `workload`.
    pub fn round_sessions(&self, workload: Workload) -> usize {
        match workload {
            Workload::WarmStart => self.warm_round,
            Workload::LongSession => self.long_round,
            Workload::Replicated => self.ring_round,
        }
    }

    /// Least set-ups timed per run of `workload`.
    pub fn setups(&self, workload: Workload) -> usize {
        match workload {
            Workload::WarmStart => self.warm_setups,
            _ => self.empty_setups,
        }
    }
}

/// A stream of random numbers private to one purpose of one seed.
fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A blend of two distinct canonical TPC-W mixes.
fn blended_mix(rng: &mut ChaCha8Rng) -> WorkloadMix {
    let canonical = [
        WorkloadMix::browsing(),
        WorkloadMix::shopping(),
        WorkloadMix::ordering(),
    ];
    let a = rng.gen_range(0..3usize);
    let b = (a + 1 + rng.gen_range(0..2usize)) % 3;
    canonical[a].blend(&canonical[b], rng.gen::<f64>())
}

/// The client-side objective: websim's analytic WIPS for the first ten
/// parameters, minus a quadratic penalty around a seeded optimum for
/// any further ones.
pub struct Objective {
    system: WebServiceSystem,
    optimum: Vec<i64>,
}

impl Objective {
    /// Measure one configuration.
    pub fn measure(&mut self, values: &[i64]) -> f64 {
        let (web, extra) = values.split_at(10);
        let wips = self.system.evaluate(&Configuration::new(web.to_vec()));
        let penalty: f64 = extra
            .iter()
            .zip(&self.optimum)
            .map(|(&v, &o)| ((v - o) as f64 / 100.0).powi(2))
            .sum();
        wips - 20.0 * penalty
    }
}

/// One session as the client drives it.
pub struct SessionSpec {
    /// Session number within the run.
    pub index: usize,
    /// Label the run is recorded under.
    pub label: String,
    /// The session's RSL document.
    pub rsl: String,
    /// Characteristics sent with `SessionStart`.
    pub characteristics: Vec<f64>,
    /// Live budget (`None` keeps the daemon's default).
    pub budget: Option<usize>,
    /// Search engine (`None` is the daemon's simplex kernel).
    pub engine: Option<String>,
    /// The workload mix the objective serves.
    pub mix: WorkloadMix,
    /// Optimum of the parameters beyond websim's ten.
    pub optimum: Vec<i64>,
}

impl SessionSpec {
    /// A fresh objective for this session.
    pub fn objective(&self) -> Objective {
        Objective {
            system: WebServiceSystem::new(self.mix.clone(), Fidelity::Analytic, 0.0, 0),
            optimum: self.optimum.clone(),
        }
    }

    /// The budget the daemon enforces.
    pub fn effective_budget(&self) -> usize {
        self.budget
            .unwrap_or_else(|| TuningOptions::improved().max_iterations)
    }
}

/// websim's ten parameters as RSL.
pub fn websim_rsl() -> String {
    write_rsl(&webservice_space())
}

/// websim's ten parameters plus 22 more: the 32-parameter space of the
/// bypass workloads.
pub fn wide_rsl() -> String {
    let mut rsl = websim_rsl();
    for i in 0..EXTRA_PARAMS {
        rsl.push_str(&format!(
            "{{ harmonyBundle x{i:02} {{ int {{0 100 1 50}} }}}}\n"
        ));
    }
    rsl
}

/// Session `index` of a workload's run for `seed`.
pub fn session(workload: Workload, seed: u64, index: usize, scale: &Scale) -> SessionSpec {
    match workload {
        Workload::WarmStart => {
            // Session k returns to prior workload k mod prior_runs, with
            // the characteristics that workload's run was recorded under.
            // That run is its nearest match (earliest on ties) however
            // many sessions finished before it, so convergence does not
            // depend on how fast the host ran the sessions before it.
            let (mix, characteristics) = prior_workload(seed, index % scale.prior_runs.max(1));
            SessionSpec {
                index,
                label: format!("warm-{index}"),
                rsl: websim_rsl(),
                characteristics,
                budget: None,
                engine: None,
                mix,
                optimum: Vec::new(),
            }
        }
        Workload::LongSession | Workload::Replicated => {
            let mut r = rng(seed, 0x5E55_0000 + index as u64);
            let mix = blended_mix(&mut r);
            SessionSpec {
                index,
                label: format!("{}-{index}", workload.name()),
                rsl: wide_rsl(),
                // Far apart from each other and from any TPC-W mix, so the
                // analyzer's gate keeps every session cold.
                characteristics: (0..14).map(|_| r.gen_range(2.0..12.0)).collect(),
                budget: Some(match workload {
                    Workload::LongSession => scale.long_budget,
                    _ => scale.ring_budget,
                }),
                // Each client runs the simplex kernel twice, then the
                // tuneful engine once. The two kernels' session times
                // differ; with an even mix the median would sit on the
                // boundary between them and jump from run to run.
                engine: (index % 6 >= 4).then(|| "tuneful".to_string()),
                optimum: (0..EXTRA_PARAMS).map(|_| r.gen_range(0..=100)).collect(),
                mix,
            }
        }
    }
}

/// Prior workload `i`: a blended TPC-W mix and the characteristics
/// `WorkloadMix::observe` probed from it.
fn prior_workload(seed: u64, i: usize) -> (WorkloadMix, Vec<f64>) {
    let mut r = rng(seed, 0x9810_0000 + i as u64);
    let mix = blended_mix(&mut r);
    let characteristics = mix.observe(OBSERVE_REQUESTS, &mut r);
    (mix, characteristics)
}

/// The experience the workload's daemon starts from: for warm-start,
/// prior websim tuning runs on blended TPC-W mixes, each a short
/// budget-limited simplex run; the bypass workloads start empty.
pub fn prior_experience(workload: Workload, seed: u64, scale: &Scale) -> ExperienceDb {
    let mut db = ExperienceDb::new();
    if workload != Workload::WarmStart {
        return db;
    }
    let space = parse_rsl(&websim_rsl()).expect("websim RSL parses");
    let tuner = Tuner::new(
        space,
        TuningOptions::improved().with_max_iterations(PRIOR_BUDGET),
    );
    for i in 0..scale.prior_runs {
        let (mix, characteristics) = prior_workload(seed, i);
        let mut system = WebServiceSystem::new(mix, Fidelity::Analytic, 0.0, 0);
        let mut session = tuner.session();
        while let Some(config) = session.next_config() {
            let performance = system.evaluate(&config);
            session
                .observe(performance)
                .expect("a proposal is outstanding");
        }
        db.add_run(
            session
                .finish()
                .to_history(format!("prior-{i}"), characteristics),
        );
    }
    db
}

/// The analyzer every workload's daemon classifies with.
pub fn analyzer() -> DataAnalyzer {
    DataAnalyzer::new().with_max_match_distance(MATCH_GATE)
}
