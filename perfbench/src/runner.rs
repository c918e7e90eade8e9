//! The coordinator side of a benchmark run: set-up, the closed round
//! loop over the production `Session`, the aggregate tail, and the
//! per-round correctness checks.
//!
//! A round is timed from the `Session::run_round` call until its
//! aggregate is usable: for XNoise workloads after
//! `xnoise::enforcement::remove_excess`, `Encoder::decode` and the
//! `PrivacyLedger::record_round_at` entry — the round
//! `train_session_networked` runs, composed from public calls because
//! that driver spawns one thread per population member.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_core::sampling::{decode_claim, seat_claims, SeatedCohort};
use dordis_core::session::vrf_registry;
use dordis_dp::accountant::Mechanism;
use dordis_dp::ledger::PrivacyLedger;
use dordis_net::coordinator::{CollectMode, CoordinatorConfig, NetRoundReport};
use dordis_net::faults::FaultPlan;
use dordis_net::reactor::ReactorStats;
use dordis_net::session::{Seating, SeatingOutcome, Session, SessionConfig};
use dordis_net::transport::{LoopbackAcceptor, LoopbackHub};
use dordis_secagg::driver::{round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{ClientId, RoundParams};
use dordis_telemetry::{MetricsSnapshot, SpanRecord, Telemetry};
use dordis_xnoise::enforcement::{center, remove_excess};

use crate::fleet::{Fleet, FleetRound, FleetSummary, Member, Retain};
use crate::sys::{thread_count, thread_cpu_ns};
use crate::trace::Tracer;
use crate::workload::{Spec, Workload, TARGET_VARIANCE};

/// How many times a run builds its workload and session; the median is
/// `setup_s`.
pub const SETUP_REPS: usize = 9;

/// When a run stops starting rounds.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this much measuring time (the warm-up round is extra).
    Time(Duration),
    /// After this many measured rounds.
    Rounds(u64),
}

/// Options of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// When to stop.
    pub limit: Limit,
    /// Record spans (enabled session telemetry + benchmark spans).
    pub trace: bool,
    /// Re-run every round through the in-memory driver (tests); by
    /// default only the warm-up round is.
    pub driver_every_round: bool,
}

/// One measured round.
#[derive(Clone, Debug, Default)]
pub struct RoundSample {
    /// Round id.
    pub round: u64,
    /// Seated clients.
    pub seated: usize,
    /// Wall time from `run_round` to a usable aggregate.
    pub wall_ns: u64,
    /// Coordinator-thread CPU over the same interval.
    pub coord_cpu_ns: u64,
    /// Fleet-thread CPU for the round.
    pub fleet_cpu_ns: u64,
    /// Framed client→coordinator bytes.
    pub uplink_bytes: u64,
    /// Framed coordinator→client bytes.
    pub downlink_bytes: u64,
    /// Detected dropouts that were not scripted.
    pub unscripted: usize,
    /// Whether any check failed.
    pub failed: bool,
    /// Realized residual noise variance ÷ target (XNoise workloads).
    pub residual_ratio: Option<f64>,
    /// XNoise components removed from the aggregate.
    pub components_removed: usize,
    /// Reactor activity, join phase included.
    pub reactor: ReactorStats,
    /// Stale frames discarded.
    pub stale_frames: u64,
    /// The round's metrics delta (traced runs).
    pub metrics: Option<MetricsSnapshot>,
}

/// Everything a run measured.
pub struct RunOutcome {
    /// Set-up wall times.
    pub setup_ns: Vec<u64>,
    /// Measured rounds (the warm-up round excluded).
    pub rounds: Vec<RoundSample>,
    /// Rounds run, the warm-up round included.
    pub attempted: usize,
    /// Rounds that failed a check, the warm-up round included.
    pub failed: usize,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Rounds whose re-run through the in-memory driver matched.
    pub driver_matches: usize,
    /// Most OS threads seen in the process during the rounds.
    pub threads_max: u64,
    /// The fleet's totals.
    pub fleet: FleetSummary,
    /// Every span recorded (traced runs).
    pub spans: Vec<SpanRecord>,
    /// Session metrics at the end (traced runs).
    pub final_metrics: Option<MetricsSnapshot>,
    /// The Chrome-tracing export (traced runs).
    pub chrome_trace: Option<String>,
    /// Round id of the warm-up round.
    pub warmup_round: u64,
    /// The workload's vector length.
    pub dim: usize,
}

impl RunOutcome {
    /// Whether every check of the run passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A workload plus its connected population, ready for a session.
struct Prepared {
    workload: Arc<Workload>,
    hub: LoopbackHub,
    acceptor: LoopbackAcceptor,
    members: Vec<Member>,
}

fn prepare(spec: &Spec, seed: u64) -> Result<Prepared, String> {
    let workload = Arc::new(Workload::new(spec.clone(), seed));
    let (hub, acceptor) = LoopbackHub::new();
    let members = workload
        .population()
        .into_iter()
        .map(|id| Member::connect(&hub, id))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        workload,
        hub,
        acceptor,
        members,
    })
}

/// The coordinator's session configuration: one round machine, serial
/// unmasking, no ingress budget, announce-driven rounds.
fn session_config<'a>(
    w: &Arc<Workload>,
    tel: &Telemetry,
    cohort: &Rc<RefCell<Vec<ClientId>>>,
) -> SessionConfig<'a> {
    let seating = match w.spec.claims() {
        Some(sample) => {
            let registry = vrf_registry(w.seed, w.spec.population);
            let tracer = Tracer::new(tel.clone());
            Seating::Claims(Box::new(move |r, raw| {
                tracer.span("bench", "seat_claims", r, || {
                    let mut claims = Vec::with_capacity(raw.len());
                    let mut rejected = Vec::new();
                    for (id, bytes) in raw {
                        match decode_claim(bytes) {
                            Ok(c) if c.client == *id => claims.push(c),
                            Ok(_) => rejected.push((*id, "claim names another client".into())),
                            Err(why) => rejected.push((*id, why)),
                        }
                    }
                    let SeatedCohort {
                        seated,
                        rejected: invalid,
                    } = seat_claims(&claims, &registry, r, &sample);
                    rejected.extend(invalid);
                    SeatingOutcome { seated, rejected }
                })
            }))
        }
        None => Seating::Roster,
    };
    let params_w = Arc::clone(w);
    let params_cohort = Rc::clone(cohort);
    SessionConfig {
        first_round: 1,
        rounds: u64::MAX,
        join_timeout: Duration::from_secs(60),
        stage_timeout: Duration::from_secs(60),
        chunks: w.spec.chunks,
        chunk_compute: None,
        tick: CoordinatorConfig::DEFAULT_TICK,
        mode: CollectMode::Reactor,
        workers: 0,
        shards: 1,
        ingress_budget: 0,
        announce: true,
        population: w.population(),
        seating,
        params_for: Box::new(move |r, seated| {
            let cohort = if seated.is_empty() {
                params_w.population()
            } else {
                seated.to_vec()
            };
            *params_cohort.borrow_mut() = cohort.clone();
            params_w.params(r, &cohort)
        }),
        telemetry: tel.clone(),
        metrics_addr: None,
        replica: None,
        faults: FaultPlan::none(),
    }
}

/// The aggregate tail of an XNoise round: what the coordinator does
/// between the secure sum and a usable model update.
struct Tail {
    ledger: PrivacyLedger,
    rate: f64,
    multiplier: f64,
}

impl Tail {
    fn new(w: &Workload) -> Result<Tail, String> {
        let enc = &w.encoding;
        let mechanism = Mechanism::Skellam {
            l1_per_l2: enc.l1_per_l2(w.spec.dim),
        };
        let ledger = PrivacyLedger::new(mechanism, 1e9, 1e-5).map_err(|e| e.to_string())?;
        let sample = w.spec.claims().ok_or("XNoise workloads seat by claims")?;
        Ok(Tail {
            ledger,
            rate: sample.target_sample as f64 / f64::from(w.spec.population),
            // Exact enforcement: the residual is the target, so the
            // achieved multiplier is the planned one.
            multiplier: TARGET_VARIANCE.sqrt() / enc.l2_sensitivity(w.spec.dim),
        })
    }
}

/// Runs `spec` with `seed`: set-up, one warm-up round, then measured
/// rounds until the limit.
///
/// # Errors
///
/// Set-up failures, session errors and fleet errors — anything that
/// stops the run before its measurements are complete.
pub fn run(spec: &Spec, seed: u64, opts: RunOptions) -> Result<RunOutcome, String> {
    let tel = if opts.trace {
        Telemetry::with_span_capacity(1 << 18)
    } else {
        Telemetry::disabled()
    };
    let cohort: Rc<RefCell<Vec<ClientId>>> = Rc::new(RefCell::new(Vec::new()));

    // ---- Set-up, several times; the last one is kept. ----
    let mut setup_ns = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let mut p = prepare(spec, seed)?;
        let session = Session::new(&mut p.acceptor, session_config(&p.workload, &tel, &cohort))
            .map_err(|e| format!("session: {e}"))?;
        setup_ns.push(t.elapsed().as_nanos() as u64);
        drop(session);
    }
    let t = Instant::now();
    let Prepared {
        workload: w,
        hub,
        mut acceptor,
        members,
    } = prepare(spec, seed)?;
    let mut session = Session::new(&mut acceptor, session_config(&w, &tel, &cohort))
        .map_err(|e| format!("session: {e}"))?;
    let mut tail = if spec.xnoise {
        Some(Tail::new(&w)?)
    } else {
        None
    };
    setup_ns.push(t.elapsed().as_nanos() as u64);

    // ---- The fleet thread. ----
    let (tx, rx) = mpsc::channel::<FleetRound>();
    let retain = if opts.driver_every_round {
        Retain::All
    } else {
        Retain::First
    };
    let fleet = Fleet::new(
        Arc::clone(&w),
        hub,
        members,
        Tracer::new(tel.clone()),
        retain,
    );
    let fleet_thread = std::thread::Builder::new()
        .name("fleet".into())
        .spawn(move || fleet.run(&tx))
        .map_err(|e| format!("spawn fleet: {e}"))?;

    let tracer = Tracer::new(tel.clone());
    let mut out = RunOutcome {
        setup_ns,
        rounds: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        driver_matches: 0,
        threads_max: 0,
        fleet: FleetSummary::default(),
        spans: Vec::new(),
        final_metrics: None,
        chrome_trace: None,
        warmup_round: session.current_round(),
        dim: spec.dim,
    };
    let mut stop_at: Option<Instant> = None;
    let loop_result = (|| -> Result<(), String> {
        loop {
            let round = session.current_round();
            let t0 = Instant::now();
            let c0 = thread_cpu_ns();
            let report = session
                .run_round(&[])
                .map_err(|e| format!("round {round}: {e}"))?;
            // The aggregate tail works on a copy, so the secure sum stays
            // available for the survivors-sum check.
            let mut post_removal = None;
            let mut removed = 0;
            if let Some(tail) = tail.as_mut() {
                let mut sum = report.outcome.sum.clone();
                let n = cohort.borrow().len();
                removed = finish_xnoise(&w, tail, &tracer, &report, &mut sum, n)?;
                post_removal = Some(sum);
            }
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let coord_cpu_ns = thread_cpu_ns() - c0;

            let fr = rx
                .recv_timeout(Duration::from_secs(120))
                .map_err(|_| format!("round {round}: no fleet report (fleet stopped)"))?;
            let seated = cohort.borrow().clone();
            let mut sample = check_round(
                &w,
                &report,
                &fr,
                &seated,
                post_removal.as_deref().unwrap_or(&report.outcome.sum),
                &mut out.failures,
            );
            sample.wall_ns = wall_ns;
            sample.coord_cpu_ns = coord_cpu_ns;
            sample.components_removed = removed;
            out.threads_max = out.threads_max.max(thread_count());

            if let Some(inputs) = fr.inputs {
                let params = w.params(round, &seated);
                match driver_matches(&w, params, inputs, &fr.scripted, &report.outcome) {
                    Ok(()) => out.driver_matches += 1,
                    Err(why) => {
                        sample.failed = true;
                        out.failures.push(format!("round {round}: {why}"));
                    }
                }
            }

            out.attempted += 1;
            out.failed += usize::from(sample.failed);
            if round == out.warmup_round {
                // Caches filled, lazy set-up done: the clock starts now.
                if let Limit::Time(d) = opts.limit {
                    stop_at = Some(Instant::now() + d);
                }
                continue;
            }
            out.rounds.push(sample);
            let done = match opts.limit {
                Limit::Time(_) => stop_at.is_some_and(|s| Instant::now() >= s),
                Limit::Rounds(n) => out.rounds.len() as u64 >= n,
            };
            if done {
                return Ok(());
            }
        }
    })();
    session.finish();
    // Pooled over the run, the residual check resolves a deviation of a
    // few percent — one XNoise component left in, say — that a single
    // round's sampling error hides.
    let ratios: Vec<f64> = out.rounds.iter().filter_map(|r| r.residual_ratio).collect();
    if !ratios.is_empty() {
        let pooled = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let tol = 6.0 * (2.0 / (spec.dim * ratios.len()) as f64).sqrt();
        if (pooled - 1.0).abs() > tol {
            out.failures.push(format!(
                "residual noise variance ratio {pooled:.4} pooled over {} rounds outside 1 ± {tol:.4}",
                ratios.len()
            ));
        }
    }
    let fleet_result = fleet_thread
        .join()
        .map_err(|_| "fleet thread panicked".to_string())?;
    loop_result?;
    out.fleet = fleet_result?;
    if tel.is_enabled() {
        out.spans = tel.spans();
        out.final_metrics = tel.snapshot();
        out.chrome_trace = Some(tel.export_chrome_trace());
    }
    Ok(out)
}

/// Removes the excess XNoise components, decodes, and records the
/// round in the privacy ledger. Returns the components removed.
fn finish_xnoise(
    w: &Workload,
    tail: &mut Tail,
    tracer: &Tracer,
    report: &NetRoundReport,
    sum: &mut [u64],
    n: usize,
) -> Result<usize, String> {
    let round = report.round;
    let plan = w.xnoise_plan(n)?;
    let survivors = &report.outcome.survivors;
    let dropped = n - survivors.len();
    let removed = plan
        .removal_components(dropped)
        .map_err(|e| e.to_string())?
        .count()
        * survivors.len();
    tracer
        .span("bench", "remove_excess", round, || {
            remove_excess(
                sum,
                &report.outcome.removal_seeds,
                survivors,
                &plan,
                w.spec.bit_width,
            )
        })
        .map_err(|e| format!("round {round}: remove_excess: {e}"))?;
    let decoded = tracer.span("bench", "decode", round, || {
        w.encoder(round).decode(sum, w.spec.dim)
    });
    std::hint::black_box(decoded);
    tracer
        .span("bench", "ledger_record", round, || {
            tail.ledger
                .record_round_at(round, tail.rate, tail.multiplier)
        })
        .map_err(|e| format!("round {round}: ledger: {e}"))?;
    Ok(removed)
}

/// Checks one round against what the fleet submitted and scripted.
fn check_round(
    w: &Workload,
    report: &NetRoundReport,
    fr: &FleetRound,
    seated: &[ClientId],
    post_removal: &[u64],
    failures: &mut Vec<String>,
) -> RoundSample {
    let round = report.round;
    let before = failures.len();
    let mut fail = |why: String| failures.push(format!("round {round}: {why}"));
    if fr.round != round {
        fail(format!("fleet reported round {}", fr.round));
    }
    if fr.seated != seated {
        fail(format!(
            "fleet seated {:?}, coordinator {seated:?}",
            fr.seated
        ));
    }
    // Survivors-sum equality: the secure sum is exactly the sum of what
    // the survivors submitted.
    if report.outcome.sum != fr.submitted_sum {
        fail("aggregate differs from the survivors' submitted sum".into());
    }
    // Detected dropouts are exactly the scripted ones.
    let detected: BTreeSet<ClientId> = report.dropouts.iter().map(|d| d.client).collect();
    let scripted: BTreeSet<ClientId> = fr.scripted.iter().copied().collect();
    let unscripted = detected.difference(&scripted).count();
    let mut dropped = report.outcome.dropped.clone();
    dropped.sort_unstable();
    if detected != scripted || dropped != fr.scripted {
        fail(format!(
            "detected dropouts {detected:?} (dropped {dropped:?}) != scripted {scripted:?}"
        ));
    }
    // XNoise: the residual noise is the target, within sampling error.
    let residual_ratio = w.spec.xnoise.then(|| {
        let m = 1u64 << w.spec.bit_width;
        let d = post_removal.len() as f64;
        let ss: f64 = post_removal
            .iter()
            .zip(&fr.clean_sum)
            .map(|(&a, &c)| {
                let z = center((a + m - c) % m, w.spec.bit_width) as f64;
                z * z
            })
            .sum();
        ss / d / TARGET_VARIANCE
    });
    if let Some(ratio) = residual_ratio {
        // Six standard errors of a sample variance over `dim` draws.
        let tol = 6.0 * (2.0 / w.spec.dim as f64).sqrt();
        if (ratio - 1.0).abs() > tol {
            fail(format!(
                "residual noise variance ratio {ratio:.4} outside 1 ± {tol:.4}"
            ));
        }
    }
    let failed = failures.len() > before;
    RoundSample {
        round,
        seated: seated.len(),
        fleet_cpu_ns: fr.cpu_ns,
        uplink_bytes: report.stats.stages.iter().map(|s| s.uplink_total).sum(),
        downlink_bytes: report.stats.stages.iter().map(|s| s.downlink_total).sum(),
        unscripted,
        failed,
        residual_ratio,
        reactor: report.reactor.unwrap_or_default(),
        stale_frames: report.stale_frames,
        metrics: report.metrics.clone(),
        ..RoundSample::default()
    }
}

/// Re-runs a round through the in-memory reference driver with the same
/// parameters, inputs, dropouts and `round_rng_seed`, and compares the
/// outcome bit for bit.
fn driver_matches(
    w: &Workload,
    params: RoundParams,
    inputs: std::collections::BTreeMap<ClientId, dordis_secagg::client::ClientInput>,
    scripted: &[ClientId],
    net: &RoundOutcome,
) -> Result<(), String> {
    let round = params.round;
    let mut dropout = DropoutSchedule::none();
    for &id in scripted {
        // A mid-stream drop never reaches U3: the driver's
        // before-masked-input drop.
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let (reference, _) = run_round(RoundSpec {
        params,
        inputs,
        dropout,
        rng_seed: round_rng_seed(w.seed, round),
    })
    .map_err(|e| format!("driver round: {e}"))?;
    let seeds = |o: &RoundOutcome| {
        let mut s = o.removal_seeds.clone();
        s.sort_unstable();
        s
    };
    if reference.sum != net.sum
        || reference.survivors != net.survivors
        || reference.dropped != net.dropped
        || seeds(&reference) != seeds(net)
    {
        return Err("session round differs from the in-memory driver".into());
    }
    Ok(())
}
