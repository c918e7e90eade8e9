//! Serial versus pooled unmask-phase CPU time.
//!
//! Unmasking recovery is SecAgg's dominant server cost under dropout
//! (Bonawitz et al., CCS'17): every survivor's self-mask plus, per
//! mid-round dropout, one full-dimension pairwise mask per
//! masking-graph neighbor. This bench isolates exactly that phase — the
//! stages through the unmasking *responses* run once per variant as
//! setup, then the measured region is `reconstruct + unmask` — and
//! compares the serial reference (inline full-length correction)
//! against the dordis-compute plane (per-chunk jobs on a worker pool,
//! each seeking the mask streams to its chunk offset).
//!
//! Results land in `BENCH_unmask_cpu.json` at the workspace root,
//! including `host_cores`: the ≥2x acceptance claim applies on a ≥4-core
//! host and is asserted only there (a 1-core container records ~1x).
//! `UNMASK_CPU_SMOKE=1` shrinks the grid for CI and skips the JSON
//! write; both paths always assert bit-equality.
//!
//! ```sh
//! cargo bench -p dordis-bench --bench unmask_cpu
//! UNMASK_CPU_SMOKE=1 cargo bench -p dordis-bench --bench unmask_cpu
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_compute::JobOutcome;
use dordis_net::compute::ComputePlane;
use dordis_net::reactor::Reactor;
use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::run_until_unmasking;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::messages::UnmaskingResponse;
use dordis_secagg::server::Server;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const BITS: u32 = 20;
const SEED: u64 = 90_210;
const CHUNKS: usize = 8;

fn params(n: u32, dim: usize) -> RoundParams {
    let graph = MaskingGraph::harary_for(n as usize);
    // SecAgg+ convention: the share threshold is ~2/3 of the masking
    // degree, leaving deg/3 per-neighborhood dropout tolerance
    // (`share_threshold` is min(threshold, degree)).
    let threshold = (2 * graph.degree(n as usize) / 3).max(2);
    RoundParams {
        round: 1,
        clients: (0..n).collect(),
        threshold,
        bit_width: BITS,
        vector_len: dim,
        noise_components: 0,
        threat_model: ThreatModel::SemiHonest,
        graph,
    }
}

/// Stages 0–3 plus the unmasking responses — the setup outside the
/// measured region (the shared `run_until_unmasking` driver; `dropped`
/// clients vanish before the masked input, forcing pairwise recovery).
fn round_until_unmasking(
    p: &RoundParams,
    plan: &ChunkPlan,
    dropped: &[ClientId],
) -> (Server, Vec<UnmaskingResponse>) {
    let dim = p.vector_len;
    let (server, responses, _) = run_until_unmasking(p, plan, dropped, SEED, |id| ClientInput {
        vector: (0..dim)
            .map(|i| (u64::from(id) * 131 + i as u64 * 17) & ((1 << BITS) - 1))
            .collect(),
        noise_seeds: Vec::new(),
    })
    .expect("round setup");
    (server, responses)
}

/// Serial unmask phase: reconstruct + inline per-chunk unmasking.
fn serial_unmask(mut server: Server, responses: Vec<UnmaskingResponse>) -> (Duration, Vec<u64>) {
    let start = Instant::now();
    server.collect_unmasking(responses).expect("serial unmask");
    let wall = start.elapsed();
    (wall, server.finish().sum)
}

/// Pooled unmask phase: plan + per-chunk jobs on the compute plane
/// (exactly the code path the networked coordinator runs with
/// `--workers N`).
fn pooled_unmask(
    mut server: Server,
    responses: Vec<UnmaskingResponse>,
    plan: &ChunkPlan,
    plane: &mut ComputePlane,
) -> (Duration, Vec<u64>) {
    let start = Instant::now();
    let jobs = Arc::new(server.plan_unmasking(responses).expect("plan"));
    for c in 0..plan.chunks() {
        let inputs = server.take_chunk_inputs(c).expect("take inputs");
        let jobs = Arc::clone(&jobs);
        let range = plan.range(c);
        let bits = plan.bit_width();
        plane.submit(c, move || {
            dordis_secagg::server::unmask_chunk_task(&inputs, &jobs, range.start, range.len(), bits)
        });
    }
    let mut installed = 0;
    while installed < plan.chunks() {
        let (c, outcome) = plane.wait_complete().expect("completion");
        match outcome {
            JobOutcome::Done(sum) => server.install_chunk_sum(c, sum).expect("install"),
            JobOutcome::Panicked(m) => panic!("worker panicked: {m}"),
        }
        installed += 1;
    }
    let wall = start.elapsed();
    (wall, server.finish().sum)
}

struct Row {
    clients: u32,
    dropout_rate: f64,
    dim: usize,
    serial: Duration,
    pooled: Duration,
}

fn main() {
    let smoke = std::env::var("UNMASK_CPU_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = host_cores.clamp(1, CHUNKS);

    // clients × dropout-rate × dim; the acceptance point is
    // (128, 0.2, ≥50k).
    let grid: Vec<(u32, f64, usize)> = if smoke {
        vec![(16, 0.0, 4_096), (16, 0.2, 4_096)]
    } else {
        vec![
            (32, 0.0, 50_000),
            (32, 0.2, 50_000),
            (128, 0.0, 50_000),
            (128, 0.2, 50_000),
            (128, 0.2, 200_000),
        ]
    };
    let best_of = if smoke { 1 } else { 3 };

    // The plane publishes completions through a reactor waker, exactly
    // as in the coordinator; nothing polls it here.
    let reactor = Reactor::new(Duration::from_millis(10)).expect("reactor");
    let mut plane = ComputePlane::new(workers, reactor.waker());
    let mut rows = Vec::new();
    for &(n, rate, dim) in &grid {
        let p = params(n, dim);
        let plan = ChunkPlan::aligned(dim, CHUNKS, BITS).expect("plan");
        // Dropouts spread uniformly around the Harary ring, so no one
        // neighborhood loses more shares than the threshold tolerates.
        let k = (n as f64 * rate) as u32;
        let dropped: Vec<ClientId> = (0..k).map(|i| i * n / k.max(1)).collect();

        let mut row = Row {
            clients: n,
            dropout_rate: rate,
            dim,
            serial: Duration::MAX,
            pooled: Duration::MAX,
        };
        let mut serial_sum = Vec::new();
        let mut pooled_sum = Vec::new();
        for _ in 0..best_of {
            let (server, responses) = round_until_unmasking(&p, &plan, &dropped);
            let (wall, sum) = serial_unmask(server, responses);
            row.serial = row.serial.min(wall);
            serial_sum = sum;

            let (server, responses) = round_until_unmasking(&p, &plan, &dropped);
            let (wall, sum) = pooled_unmask(server, responses, &plan, &mut plane);
            row.pooled = row.pooled.min(wall);
            pooled_sum = sum;
        }
        assert_eq!(
            serial_sum, pooled_sum,
            "pooled unmask not bit-equal at n={n} rate={rate} dim={dim}"
        );
        println!(
            "n = {:3}, dropout = {:>4.0}%, d = {:6}: serial {:9.2} ms | pooled({workers}w) \
             {:9.2} ms | speedup {:.2}x",
            n,
            rate * 100.0,
            dim,
            row.serial.as_secs_f64() * 1e3,
            row.pooled.as_secs_f64() * 1e3,
            row.serial.as_secs_f64() / row.pooled.as_secs_f64().max(1e-9),
        );
        rows.push(row);
    }

    // Acceptance claim: ≥2x at 128 clients / 20% dropout / dim ≥ 50k —
    // only meaningful with real cores to parallelize over.
    if host_cores >= 4 {
        for row in &rows {
            if row.clients == 128 && row.dropout_rate >= 0.2 && row.dim >= 50_000 {
                let speedup = row.serial.as_secs_f64() / row.pooled.as_secs_f64().max(1e-9);
                assert!(
                    speedup >= 2.0,
                    "pooled unmask speedup {speedup:.2}x < 2x at the acceptance point \
                     ({host_cores} cores, {workers} workers)"
                );
            }
        }
    }

    if smoke {
        println!("smoke mode: skipping BENCH_unmask_cpu.json");
        return;
    }
    let mut entries = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            entries.push_str(",\n");
        }
        entries.push_str(&format!(
            "    {{\n      \"clients\": {},\n      \"dropout_rate\": {},\n      \
             \"dim\": {},\n      \"serial_ms\": {:.3},\n      \"pooled_ms\": {:.3},\n      \
             \"speedup\": {:.4}\n    }}",
            row.clients,
            row.dropout_rate,
            row.dim,
            row.serial.as_secs_f64() * 1e3,
            row.pooled.as_secs_f64() * 1e3,
            row.serial.as_secs_f64() / row.pooled.as_secs_f64().max(1e-9),
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"unmask_cpu\",\n  \"host_cores\": {host_cores},\n  \
         \"workers\": {workers},\n  \"chunks\": {CHUNKS},\n  \"bit_width\": {BITS},\n  \
         \"configs\": [\n{entries}\n  ]\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_unmask_cpu.json");
    std::fs::write(path, json).expect("write BENCH_unmask_cpu.json");
    println!("wrote {path}");
}
