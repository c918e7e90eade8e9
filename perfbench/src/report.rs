//! Turns run measurements into named metrics, prints them, and writes
//! the result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dordis_sim::cost::UnitCosts;
use dordis_telemetry::{MetricsSnapshot, SpanRecord};

use crate::fleet::FleetSummary;
use crate::probe::{Probes, SHAMIR_N};
use crate::runner::RunOutcome;
use crate::stats::{median, tail};
use crate::sys::peak_rss_mib;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
    /// Extra context (e.g. which percentile a tail resolved to).
    pub note: String,
}

impl Metric {
    fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: String::new(),
        }
    }
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(out: &RunOutcome) -> Vec<Metric> {
    let r = &out.rounds;
    let n = r.len();
    let walls: Vec<f64> = r.iter().map(|s| s.wall_ns as f64 / 1e9).collect();
    let (tail_s, tail_pct) = tail(&walls);
    let client_rounds: usize = r.iter().map(|s| s.seated).sum();
    let per_client = |f: fn(&crate::runner::RoundSample) -> u64| {
        r.iter().map(f).sum::<u64>() as f64 / client_rounds.max(1) as f64
    };
    let failed = r.iter().filter(|s| s.failed).count();
    let unscripted: usize = r.iter().map(|s| s.unscripted).sum();
    let setup: Vec<f64> = out.setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();

    let mut tail_metric = Metric::new("round_s.tail", "s", tail_s, n);
    tail_metric.note = format!("p{tail_pct:.1}");
    vec![
        Metric::new("round_s.p50", "s", median(&walls), n),
        tail_metric,
        Metric::new(
            "coord_cpu_ms_per_round",
            "ms",
            median(
                &r.iter()
                    .map(|s| s.coord_cpu_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            n,
        ),
        Metric::new(
            "fleet_cpu_ms_per_client_round",
            "ms",
            median(
                &r.iter()
                    .map(|s| s.fleet_cpu_ns as f64 / 1e6 / s.seated.max(1) as f64)
                    .collect::<Vec<_>>(),
            ),
            n,
        ),
        Metric::new(
            "uplink_kib_per_client_round",
            "KiB",
            per_client(|s| s.uplink_bytes) / 1024.0,
            client_rounds,
        ),
        Metric::new(
            "downlink_kib_per_client_round",
            "KiB",
            per_client(|s| s.downlink_bytes) / 1024.0,
            client_rounds,
        ),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib(), 1),
        Metric::new("setup_s", "s", median(&setup), setup.len()),
        Metric::new(
            "failed_round_share",
            "share",
            failed as f64 / n.max(1) as f64,
            n,
        ),
        Metric::new(
            "unscripted_dropout_share",
            "share",
            unscripted as f64 / client_rounds.max(1) as f64,
            client_rounds,
        ),
    ]
}

/// The two zero-when-healthy shares are gated through their
/// complements, which are never 0: a relative bound on a metric whose
/// healthy value is 0 would be meaningless.
#[must_use]
pub fn gated(metrics: &[Metric]) -> Vec<Metric> {
    metrics
        .iter()
        .map(|m| match m.name.as_str() {
            "failed_round_share" => Metric {
                name: "ok_round_share".into(),
                value: 1.0 - m.value,
                ..m.clone()
            },
            "unscripted_dropout_share" => Metric {
                name: "scripted_only_client_round_share".into(),
                value: 1.0 - m.value,
                ..m.clone()
            },
            _ => m.clone(),
        })
        .collect()
}

/// Span totals of the measured rounds, keyed by `(cat, name)`.
struct SpanTotals {
    ns: BTreeMap<(&'static str, &'static str), (u64, usize)>,
}

impl SpanTotals {
    fn new(spans: &[SpanRecord], first_round: u64) -> SpanTotals {
        let mut ns = BTreeMap::new();
        for s in spans.iter().filter(|s| s.round >= first_round) {
            let e = ns.entry((s.cat, s.name)).or_insert((0u64, 0usize));
            e.0 += s.end_ns.saturating_sub(s.start_ns);
            e.1 += 1;
        }
        SpanTotals { ns }
    }

    fn total(&self, cat: &str, name: &str) -> u64 {
        self.ns
            .iter()
            .find(|((c, n), _)| *c == cat && *n == name)
            .map_or(0, |(_, v)| v.0)
    }

    fn count(&self, cat: &str, name: &str) -> usize {
        self.ns
            .iter()
            .find(|((c, n), _)| *c == cat && *n == name)
            .map_or(0, |(_, v)| v.1)
    }

    fn cat_total(&self, cat: &str) -> u64 {
        self.ns
            .iter()
            .filter(|((c, _), _)| *c == cat)
            .map(|(_, v)| v.0)
            .sum()
    }
}

/// Stage spans the coordinator records, in protocol order. Stage 5,
/// `ExcessiveNoiseRemoval` (and with it the clients' `noise_shares`),
/// only runs when a survivor drops after its masked input; every
/// scripted drop here happens mid-stream, before U3, so neither is
/// reported.
pub const STAGES: [&str; 5] = [
    "Setup",
    "AdvertiseKeys",
    "ShareKeys",
    "MaskedInputCollection",
    "Unmasking",
];

/// Sum of one series (all label sets) over the rounds' metric deltas.
fn series_sum(rounds: &[Option<MetricsSnapshot>], name: &str) -> u64 {
    rounds
        .iter()
        .flatten()
        .flat_map(|m| m.series.iter())
        .filter(|(k, _)| k.as_str() == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| *v)
        .sum()
}

/// The per-layer metrics: from the traced run's spans and counters,
/// the micro-probes, and the untraced runs for the tracing overhead.
#[must_use]
pub fn per_layer(untraced: &[&RunOutcome], traced: &RunOutcome, probes: &Probes) -> Vec<Metric> {
    let r = &traced.rounds;
    let rounds = r.len().max(1) as f64;
    let first = r.first().map_or(u64::MAX, |s| s.round);
    let spans = SpanTotals::new(&traced.spans, first);
    let client_rounds = r.iter().map(|s| s.seated).sum::<usize>().max(1) as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let fleet = |name: &str| ms(spans.total("fleet", name)) / client_rounds;
    let per_round = |cat: &str, name: &str| ms(spans.total(cat, name)) / rounds;
    let FleetSummary { encode, decode, .. } = traced.fleet;
    let metrics: Vec<Option<MetricsSnapshot>> = r.iter().map(|s| s.metrics.clone()).collect();
    let residual_ratios: Vec<f64> = r.iter().filter_map(|s| s.residual_ratio).collect();

    let mut out = vec![
        Metric::new("crypto.x25519_agree_us", "us", probes.x25519_agree_us, 1),
        Metric::new("crypto.shamir_share_us", "us", probes.shamir_share_us, 1),
        Metric::new(
            "crypto.aead_seal_ns_per_byte",
            "ns/B",
            probes.aead_seal_ns_per_byte,
            1,
        ),
        Metric::new(
            "crypto.chacha_melem_per_s",
            "Melem/s",
            probes.chacha_melem_per_s,
            1,
        ),
        Metric::new("crypto.vrf_prove_us", "us", probes.vrf_prove_us, 1),
        Metric::new("crypto.vrf_verify_us", "us", probes.vrf_verify_us, 1),
        Metric::new(
            "dp.skellam_ns_per_elem",
            "ns",
            probes.skellam_ns_per_elem,
            1,
        ),
        Metric::new(
            "dp.encode_ms",
            "ms",
            fleet("encode"),
            spans.count("fleet", "encode"),
        ),
        Metric::new("dp.decode_ms", "ms", per_round("bench", "decode"), r.len()),
        Metric::new(
            "dp.ledger_record_us",
            "us",
            per_round("bench", "ledger_record") * 1e3,
            r.len(),
        ),
        Metric::new(
            "xnoise.perturb_ms",
            "ms",
            fleet("perturb"),
            spans.count("fleet", "perturb"),
        ),
        Metric::new(
            "xnoise.remove_excess_ms",
            "ms",
            per_round("bench", "remove_excess"),
            r.len(),
        ),
        Metric::new(
            "xnoise.components_removed",
            "count",
            r.iter().map(|s| s.components_removed as f64).sum::<f64>() / rounds,
            r.len(),
        ),
        // Every round has the same length, so the pooled variance ratio
        // is the mean of the per-round ratios.
        Metric::new(
            "xnoise.residual_var_ratio",
            "ratio",
            residual_ratios.iter().sum::<f64>() / residual_ratios.len().max(1) as f64,
            residual_ratios.len(),
        ),
    ];
    for (name, span) in [
        ("secagg.client.new_ms", "client_new"),
        ("secagg.client.advertise_ms", "advertise"),
        ("secagg.client.share_keys_ms", "share_keys"),
        ("secagg.client.masked_input_ms", "masked_input"),
        ("secagg.client.unmask_ms", "unmask"),
    ] {
        out.push(Metric::new(
            name,
            "ms",
            fleet(span),
            spans.count("fleet", span),
        ));
    }
    let self_selects = spans.count("fleet", "self_select");
    out.push(Metric::new(
        "core.sampling.self_select_us",
        "us",
        spans.total("fleet", "self_select") as f64 / 1e3 / self_selects.max(1) as f64,
        self_selects,
    ));
    out.push(Metric::new(
        "core.sampling.seat_claims_ms",
        "ms",
        per_round("bench", "seat_claims"),
        spans.count("bench", "seat_claims"),
    ));

    let frames = (encode.frames + decode.frames) as f64;
    out.extend([
        Metric::new(
            "net.codec.encode_us_per_frame",
            "us",
            encode.ns as f64 / 1e3 / encode.frames.max(1) as f64,
            encode.frames as usize,
        ),
        Metric::new(
            "net.codec.decode_us_per_frame",
            "us",
            decode.ns as f64 / 1e3 / decode.frames.max(1) as f64,
            decode.frames as usize,
        ),
        Metric::new(
            "net.codec.frames_per_client_round",
            "count",
            frames / traced.fleet.client_rounds.max(1) as f64,
            traced.fleet.client_rounds as usize,
        ),
        Metric::new(
            "net.codec.decode_mib_per_s",
            "MiB/s",
            decode.bytes as f64 / (1 << 20) as f64 / (decode.ns.max(1) as f64 / 1e9),
            decode.frames as usize,
        ),
    ]);

    let polls: u64 = r.iter().map(|s| s.reactor.polls).sum();
    let events: u64 = r.iter().map(|s| s.reactor.events).sum();
    let fires: u64 = r.iter().map(|s| s.reactor.timer_fires).sum();
    let allocated = series_sum(&metrics, "dordis_frames_allocated_total");
    let recycled = series_sum(&metrics, "dordis_frames_recycled_total");
    let high_water = traced.final_metrics.as_ref().map_or(0, |m| {
        m.get("dordis_buffered_bytes_high_water{direction=\"in\"}")
    });
    out.extend([
        Metric::new(
            "net.reactor.polls_per_round",
            "count",
            polls as f64 / rounds,
            r.len(),
        ),
        Metric::new(
            "net.reactor.events_per_round",
            "count",
            events as f64 / rounds,
            r.len(),
        ),
        Metric::new(
            "net.reactor.events_per_poll",
            "ratio",
            events as f64 / polls.max(1) as f64,
            polls as usize,
        ),
        Metric::new(
            "net.reactor.timer_fires_per_round",
            "count",
            fires as f64 / rounds,
            r.len(),
        ),
        Metric::new(
            "net.pool.frames_allocated_per_round",
            "count",
            allocated as f64 / rounds,
            r.len(),
        ),
        Metric::new(
            "net.pool.recycle_ratio",
            "ratio",
            recycled as f64 / (recycled + allocated).max(1) as f64,
            (recycled + allocated) as usize,
        ),
        Metric::new(
            "net.pool.ingress_high_water_kib",
            "KiB",
            high_water as f64 / 1024.0,
            1,
        ),
        Metric::new(
            "net.session.join_ms",
            "ms",
            per_round("session", "join"),
            r.len(),
        ),
        Metric::new(
            "net.session.seating_ms",
            "ms",
            per_round("session", "seating"),
            r.len(),
        ),
    ]);
    for stage in STAGES {
        out.push(Metric::new(
            &format!("net.coordinator.stage_ms.{stage}"),
            "ms",
            per_round("stage", stage),
            spans.count("stage", stage),
        ));
    }
    let wall: u64 = r.iter().map(|s| s.wall_ns).sum();
    let coord_cpu: u64 = r.iter().map(|s| s.coord_cpu_ns).sum();
    let fleet_cpu: u64 = r.iter().map(|s| s.fleet_cpu_ns).sum();
    out.extend([
        Metric::new(
            "net.coordinator.idle_share",
            "share",
            1.0 - coord_cpu as f64 / wall.max(1) as f64,
            r.len(),
        ),
        Metric::new(
            "net.coordinator.stale_frames",
            "count",
            r.iter().map(|s| s.stale_frames).sum::<u64>() as f64 / rounds,
            r.len(),
        ),
        Metric::new(
            "compute.unmask_chunk_ms",
            "ms",
            per_round("compute", "unmask_chunk"),
            spans.count("compute", "unmask_chunk"),
        ),
    ]);

    let plain: Vec<f64> = untraced
        .iter()
        .flat_map(|u| u.rounds.iter().map(|s| s.wall_ns as f64))
        .collect();
    let base = median(&plain);
    let with = median(&r.iter().map(|s| s.wall_ns as f64).collect::<Vec<_>>());
    // Coordinator busy work the layer spans cover: serial unmasking and
    // the benchmark's own seating and aggregate-tail calls. Stage spans
    // are mostly waiting and do not count as attribution.
    let coord_attributed = spans.total("compute", "unmask_chunk") + spans.cat_total("bench");
    let fleet_attributed = spans.cat_total("fleet") + encode.ns + decode.ns;
    out.extend([
        Metric::new(
            "telemetry.overhead_pct",
            "%",
            100.0 * (with - base) / base.max(1.0),
            plain.len() + r.len(),
        ),
        Metric::new(
            "unattributed_share.coordinator",
            "share",
            (1.0 - coord_attributed as f64 / coord_cpu.max(1) as f64).max(0.0),
            r.len(),
        ),
        Metric::new(
            "unattributed_share.fleet",
            "share",
            (1.0 - fleet_attributed as f64 / fleet_cpu.max(1) as f64).max(0.0),
            r.len(),
        ),
    ]);

    // Measured ÷ modelled, for each `UnitCosts::rust_native()` field a
    // probe or span measures (0 where this workload does not run it).
    let model = UnitCosts::rust_native();
    let encode_elems = spans.count("fleet", "encode") as f64 * traced.dim as f64;
    let decode_elems = spans.count("bench", "decode") as f64 * traced.dim as f64;
    let ratio = |measured: f64, modelled: f64| measured / modelled;
    out.extend([
        Metric::new(
            "model_ratio.ka_agree_us",
            "ratio",
            ratio(probes.x25519_agree_us, model.ka_agree_us),
            1,
        ),
        Metric::new(
            "model_ratio.shamir_share_us",
            "ratio",
            ratio(
                probes.shamir_share_us / SHAMIR_N as f64,
                model.shamir_share_us,
            ),
            1,
        ),
        Metric::new(
            "model_ratio.aead_byte_ns",
            "ratio",
            ratio(probes.aead_seal_ns_per_byte, model.aead_byte_ns),
            1,
        ),
        Metric::new(
            "model_ratio.prg_byte_ns",
            "ratio",
            // A ring element is expanded from 8 PRG bytes.
            ratio(1e3 / probes.chacha_melem_per_s / 8.0, model.prg_byte_ns),
            1,
        ),
        Metric::new(
            "model_ratio.skellam_elem_ns",
            "ratio",
            ratio(probes.skellam_ns_per_elem, model.skellam_elem_ns),
            1,
        ),
        Metric::new(
            "model_ratio.encode_elem_ns",
            "ratio",
            ratio(
                spans.total("fleet", "encode") as f64 / encode_elems.max(1.0),
                model.encode_elem_ns,
            ),
            spans.count("fleet", "encode"),
        ),
        Metric::new(
            "model_ratio.decode_elem_ns",
            "ratio",
            ratio(
                spans.total("bench", "decode") as f64 / decode_elems.max(1.0),
                model.decode_elem_ns,
            ),
            spans.count("bench", "decode"),
        ),
    ]);
    out
}

/// Which layer group the traced run found costliest per round, against
/// the expectation each workload was chosen for. Informational: a
/// disagreement is printed, not gated.
#[must_use]
pub fn leading_layer_check(workload: &str, traced: &RunOutcome) -> String {
    let first = traced.rounds.first().map_or(u64::MAX, |s| s.round);
    let spans = SpanTotals::new(&traced.spans, first);
    let groups = [
        (
            "Skellam noise (perturb + remove_excess)",
            spans.total("fleet", "perturb") + spans.total("bench", "remove_excess"),
        ),
        (
            "key agreement and sharing (client new + share_keys + unmask)",
            spans.total("fleet", "client_new")
                + spans.total("fleet", "share_keys")
                + spans.total("fleet", "unmask"),
        ),
        (
            "masked input (pairwise agreement + mask expansion + unmask_chunk)",
            spans.total("fleet", "masked_input") + spans.total("compute", "unmask_chunk"),
        ),
        (
            "encoding (encode + decode)",
            spans.total("fleet", "encode") + spans.total("bench", "decode"),
        ),
        (
            "sampling (self_select + seat_claims)",
            spans.total("fleet", "self_select") + spans.total("bench", "seat_claims"),
        ),
    ];
    let (leader, ns) = groups
        .iter()
        .copied()
        .max_by_key(|(_, ns)| *ns)
        .unwrap_or(("none", 0));
    let expected = match workload {
        "xnoise-dropout" => groups[0].0,
        "wide-cohort" => groups[1].0,
        "deep-model" => groups[2].0,
        _ => leader,
    };
    format!(
        "layer check: {} — expected {expected} to lead; measured leader {leader} at {:.1} ms/round",
        if leader == expected {
            "agrees"
        } else {
            "DISAGREES"
        },
        ns as f64 / 1e6 / traced.rounds.len().max(1) as f64
    )
}

/// Human-readable table lines.
#[must_use]
pub fn table(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("{}, ", m.note)
        };
        let _ = writeln!(
            s,
            "  {:<40} {:>14.6} {:<8} ({note}n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    s
}

/// JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and each metric's
/// value and unit.
#[must_use]
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The full result record: stamps, every metric with its sample count
/// and note, and the failed checks.
#[must_use]
pub fn record(
    stamps: &[(&str, String)],
    metrics: &[Metric],
    failures: &[String],
    correct: bool,
) -> String {
    let mut s = String::from("{\n");
    for (k, v) in stamps {
        let _ = writeln!(s, "  {}: {},", json_str(k), json_str(v));
    }
    let _ = writeln!(s, "  \"correct\": {correct},");
    let fails: Vec<String> = failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(s, "  \"failures\": [{}],", fails.join(", "));
    s.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}, \"note\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples,
                json_str(&m.note)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  }\n}\n");
    s
}
