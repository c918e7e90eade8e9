//! Coordinator scaling on a loopback transport shaped like a real
//! deployment — throttled client uplinks (every frame costs a little
//! latency) and a cohort-proportional sprinkle of *junk connections*
//! (peers that connect but never speak the protocol: crashed clients
//! reconnecting, health checks, scanners).
//!
//! The reactor holds all pending joins under provisional tokens
//! concurrently, so the junk costs one deadline *in parallel* — and is
//! discarded the moment the sampled set completes — and the collection
//! loops take one `epoll_pwait` wake-up per event batch. For each cohort
//! size the bench runs the same chunked round, asserts it completes
//! clean (no dropouts, every client a survivor), and prints wall-clock,
//! *coordinator-thread* CPU ([`dordis_bench::thread_cpu`], so the client
//! threads don't pollute the number) and the reactor's poll/event
//! counts. `REACTOR_SCALE_SMOKE=1` shrinks the cohorts for CI.
//!
//! `BENCH_reactor_scale.json` at the workspace root is the historical
//! record of this bench when it still compared the reactor against the
//! deleted round-robin poll sweep; the bench no longer writes it.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench reactor_scale
//! REACTOR_SCALE_SMOKE=1 cargo bench -p dordis-bench --bench reactor_scale
//! ```

use std::time::{Duration, Instant};

use dordis_bench::thread_cpu;
use dordis_net::coordinator::{run_coordinator, CoordinatorConfig};
use dordis_net::runtime::{run_client, ClientOptions};
use dordis_net::transport::{Channel as _, LoopbackHub, ThrottledChannel};
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const DIM: usize = 256;
const BITS: u32 = 16;
const CHUNKS: usize = 4;
const SEED: u64 = 4242;
/// Simulated per-frame uplink latency with a little per-client jitter,
/// so arrivals are spread rather than lockstep.
const PER_FRAME_BASE: Duration = Duration::from_millis(25);
const PER_FRAME_JITTER_MS: u64 = 25;
const UPLINK_BYTES_PER_SEC: u64 = 400_000;
/// Per-stage dropout deadline — also how long each junk connection is
/// held before the coordinator gives up on it.
const STAGE_TIMEOUT: Duration = Duration::from_millis(900);

/// Junk connections per cohort: one per twenty clients, at least two.
fn junk_for(n: u32) -> usize {
    (n as usize / 20).max(2)
}

/// Deterministic per-client uplink latency.
fn per_frame(id: ClientId) -> Duration {
    PER_FRAME_BASE + Duration::from_millis((u64::from(id) * 37) % PER_FRAME_JITTER_MS)
}

fn params(n: u32) -> RoundParams {
    RoundParams {
        round: 1,
        clients: (0..n).collect(),
        threshold: (n as usize / 2).clamp(2, 10),
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(n as usize),
    }
}

fn input_for(id: ClientId) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 31 + i as u64) & mask)
            .collect(),
        noise_seeds: Vec::new(),
    }
}

struct RunResult {
    wall: Duration,
    cpu: Duration,
    polls: u64,
    events: u64,
}

fn timed_round(n: u32) -> RunResult {
    let (hub, mut acceptor) = LoopbackHub::new();
    let mut handles = Vec::new();
    let mut junk_handles = Vec::new();
    let junk = junk_for(n);
    let junk_every = (n as usize / junk).max(1);
    for id in 0..n {
        if (id as usize).is_multiple_of(junk_every) && junk_handles.len() < junk {
            // A connection that never speaks: it just waits until the
            // coordinator gives up on it and closes the channel.
            let hub = hub.clone();
            let j = junk_handles.len();
            junk_handles.push(std::thread::spawn(move || {
                let mut chan = hub.connect(&format!("junk{j}")).expect("connect");
                let _ = chan.recv_deadline(Instant::now() + Duration::from_secs(120));
            }));
        }
        let hub = hub.clone();
        handles.push(std::thread::spawn(move || {
            let inner = hub.connect(&format!("c{id}")).expect("connect");
            let mut chan =
                ThrottledChannel::new(Box::new(inner), UPLINK_BYTES_PER_SEC, per_frame(id));
            let opts = ClientOptions {
                id,
                rng_seed: SEED,
                fail: None,
                recv_timeout: Duration::from_secs(600),
                silent_linger: Duration::from_secs(1),
            };
            run_client(&mut chan, &opts, move |_| Ok(input_for(id)), |_| None)
        }));
    }
    let cfg = CoordinatorConfig::new(
        params(n),
        Duration::from_secs(300),
        STAGE_TIMEOUT,
        CHUNKS,
        None,
    );
    let cpu0 = thread_cpu();
    let start = Instant::now();
    let report = run_coordinator(&mut acceptor, &cfg).expect("coordinator");
    let wall = start.elapsed();
    let cpu = thread_cpu().saturating_sub(cpu0);
    assert!(
        report.dropouts.is_empty(),
        "clean round expected: {:?}",
        report.dropouts
    );
    assert_eq!(report.outcome.survivors.len(), n as usize);
    for h in handles {
        h.join().expect("client thread").expect("client run");
    }
    for h in junk_handles {
        h.join().expect("junk thread");
    }
    let stats = report.reactor.unwrap_or_default();
    RunResult {
        wall,
        cpu,
        polls: stats.polls,
        events: stats.events,
    }
}

fn main() {
    let smoke = std::env::var("REACTOR_SCALE_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    // 255 was the per-round maximum when every Shamir polynomial was
    // evaluated at global GF(256) coordinates; neighborhood indexing
    // lifted that (see cohort_scale), but 255 stays the top rung here
    // so the series remains comparable with the historical record.
    let cohorts: &[u32] = if smoke { &[8, 16] } else { &[32, 128, 255] };
    let best_of = if smoke { 1 } else { 2 };

    for &n in cohorts {
        let best = (0..best_of)
            .map(|_| timed_round(n))
            .min_by_key(|r| r.wall)
            .expect("at least one run");
        println!(
            "clients {n:3} (+{} junk): {:7.3}s wall {:8.4}s coordinator cpu \
             ({} polls, {} events)",
            junk_for(n),
            best.wall.as_secs_f64(),
            best.cpu.as_secs_f64(),
            best.polls,
            best.events,
        );
    }
}
