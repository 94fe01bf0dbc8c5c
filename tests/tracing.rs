//! Integration: structured tracing end to end.
//!
//! Drives a real deployment with a span tracer attached and asserts the
//! exported Chrome trace-event JSON is structurally valid Perfetto input:
//! every capture is a rooted tree (capture → stage → kernel spans),
//! children nest inside their parents' time windows, and sibling stages
//! do not overlap.

use std::collections::BTreeMap;

use cbma::obs::json::JsonValue;
use cbma::obs::Tracer;
use cbma::prelude::*;

/// Runs an instrumented deployment and returns the exported trace text.
fn traced_run(rounds: usize) -> (Tracer, String) {
    let mut scenario = Scenario::paper_default(vec![
        Point::new(0.0, 0.35),
        Point::new(0.25, -0.40),
        Point::new(-0.30, 0.45),
    ])
    .with_seed(11);
    scenario.rx_config.sic_passes = 1;
    let mut engine = Engine::new(scenario).unwrap();
    for tag in engine.tags_mut() {
        tag.set_impedance(ImpedanceState::Open);
    }
    let tracer = Tracer::new(16384);
    engine.attach_tracer(&tracer);
    engine.run_rounds(rounds);
    let text = tracer.chrome_trace(None);
    (tracer, text)
}

/// One parsed trace event, decoded from the Chrome trace-event JSON.
#[derive(Debug, Clone)]
struct Ev {
    name: String,
    ts: f64,
    dur: f64,
    tid: u64,
    span: u64,
    parent: u64,
}

fn parse_events(text: &str) -> Vec<Ev> {
    let v = JsonValue::parse(text).expect("chrome trace must be valid JSON");
    let root = v.as_object().expect("trace root is an object");
    assert_eq!(
        root.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ns")
    );
    root.get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array")
        .iter()
        .map(|e| {
            let o = e.as_object().expect("event is an object");
            assert_eq!(o.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert_eq!(o.get("cat").and_then(JsonValue::as_str), Some("cbma"));
            assert_eq!(o.get("pid").and_then(JsonValue::as_u64), Some(1));
            let args = o
                .get("args")
                .and_then(JsonValue::as_object)
                .expect("args object");
            Ev {
                name: o
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string(),
                ts: o.get("ts").and_then(JsonValue::as_f64).expect("ts"),
                dur: o.get("dur").and_then(JsonValue::as_f64).expect("dur"),
                tid: o.get("tid").and_then(JsonValue::as_u64).expect("tid"),
                span: args.get("span").and_then(JsonValue::as_u64).expect("span"),
                parent: args.get("parent").and_then(JsonValue::as_u64).unwrap_or(0),
            }
        })
        .collect()
}

#[test]
fn instrumented_run_exports_a_valid_chrome_trace() {
    let (tracer, text) = traced_run(3);
    assert!(tracer.recorded() > 0, "tracer saw no spans");
    assert_eq!(tracer.dropped(), 0, "ring must not wrap in this test");
    let events = parse_events(&text);
    assert_eq!(events.len() as u64, tracer.recorded());

    // Every span name the pipeline is instrumented with must appear.
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for e in &events {
        *by_name.entry(e.name.as_str()).or_default() += 1;
    }
    for name in [
        "round",
        "tag_transmit",
        "channel_realize",
        "channel_mix",
        "channel_noise",
        "settle",
        "capture",
        "frame_sync",
        "user_detect",
        "decode",
        "sic",
        "correlate",
    ] {
        assert!(
            by_name.contains_key(name),
            "missing span {name:?}: {by_name:?}"
        );
    }
    assert_eq!(by_name["round"], 3, "one round span per round");
    for stage in [
        "tag_transmit",
        "channel_realize",
        "channel_mix",
        "channel_noise",
        "settle",
    ] {
        assert_eq!(by_name[stage], 3, "one {stage} span per round");
    }
}

#[test]
fn spans_form_rooted_trees_with_nested_children() {
    let (_tracer, text) = traced_run(2);
    let events = parse_events(&text);

    // Index spans by (trace tid, span id); ids are unique per tracer.
    let by_id: BTreeMap<u64, &Ev> = events.iter().map(|e| (e.span, e)).collect();
    assert_eq!(by_id.len(), events.len(), "span ids are unique");

    for e in &events {
        if e.parent == 0 {
            assert_eq!(e.name, "round", "only round spans are roots: {e:?}");
            continue;
        }
        let parent = by_id
            .get(&e.parent)
            .unwrap_or_else(|| panic!("dangling parent for {e:?}"));
        // A child shares its parent's trace and nests inside its
        // parent's time window (both in µs since the tracer epoch).
        assert_eq!(e.tid, parent.tid, "child crosses traces: {e:?}");
        assert!(
            e.ts >= parent.ts && e.ts + e.dur <= parent.ts + parent.dur + 1e-3,
            "child escapes parent window: child={e:?} parent={parent:?}"
        );
    }

    // capture → stage → kernel nesting: every correlate span's parent is
    // a user_detect stage, whose parent is a capture, whose parent is a
    // round.
    let mut chains = 0;
    for e in events.iter().filter(|e| e.name == "correlate") {
        let stage = by_id[&e.parent];
        assert_eq!(stage.name, "user_detect");
        let capture = by_id[&stage.parent];
        assert_eq!(capture.name, "capture");
        let round = by_id[&capture.parent];
        assert_eq!(round.name, "round");
        chains += 1;
    }
    assert!(chains > 0, "no correlate chains found");
}

#[test]
fn sibling_stage_spans_do_not_overlap() {
    let (_tracer, text) = traced_run(2);
    let events = parse_events(&text);
    let by_id: BTreeMap<u64, &Ev> = events.iter().map(|e| (e.span, e)).collect();

    // Group the stage spans under each capture, and every child of each
    // round, and check pairwise disjointness: the receive pipeline runs
    // its stages sequentially, and so does the engine's round (tag,
    // channel, capture, settlement).
    let mut children: BTreeMap<u64, Vec<&Ev>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.parent != 0) {
        let parent = by_id[&e.parent].name.as_str();
        if parent == "round"
            || (parent == "capture"
                && matches!(
                    e.name.as_str(),
                    "frame_sync" | "user_detect" | "decode" | "sic"
                ))
        {
            children.entry(e.parent).or_default().push(e);
        }
    }
    let rounds = children
        .keys()
        .filter(|&id| by_id[id].name == "round")
        .count();
    assert_eq!(rounds, 2, "every round has child spans");
    assert!(children.len() > rounds, "no capture has stage spans");
    for siblings in children.values() {
        let mut sorted = siblings.clone();
        sorted.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        for pair in sorted.windows(2) {
            assert!(
                pair[0].ts + pair[0].dur <= pair[1].ts + 1e-3,
                "sibling stages overlap: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    }
}
