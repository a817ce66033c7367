//! **E13 — zero-copy wire fast path**: frames/second through the codec
//! layer, without the fast path vs with it.
//!
//! The serve path's hot case (a retransmission answered from the reply
//! cache, a batch routed by discriminant, a replica-sync fan-out) needs
//! only the frame *header*; PR 6 made that observable at the codec API.
//! This bench measures the combined win of the three mechanisms on the RMI
//! hot path:
//!
//! * reusable encode buffers (no allocation per frame),
//! * signature interning (repeat method names are 5-byte references),
//! * borrowed header decode (no owned `WireValue` tree).
//!
//! Wall-clock, best-of-N rounds; the run **asserts** the fast path is at
//! least 2× the baseline in frames/sec. `E13_SMOKE=1` shrinks the round
//! count so CI can run it as a smoke test.

use rafda::wire::{
    CorbaCodec, Protocol, Request, RmiCodec, SigTable, SoapCodec, TraceContext, WireValue,
};
use std::time::Instant;

fn sample_request() -> Request {
    Request::Call {
        object: 42,
        method: "observe@12".to_owned(),
        args: vec![
            WireValue::Long(123),
            WireValue::Str("payload".to_owned()),
            WireValue::Bool(true),
        ],
    }
}

/// Frames/sec of the baseline: a fresh buffer per frame, no signature
/// table (every signature inline), full decode into the owned request.
fn baseline_fps(codec: &dyn Protocol, frames: u32, rounds: u32) -> f64 {
    let req = sample_request();
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let t = Instant::now();
        for i in 0..frames {
            let bytes = codec
                .encode_request(u64::from(i), TraceContext::NONE, &req)
                .unwrap();
            let decoded = codec.decode_request(&bytes).unwrap();
            std::hint::black_box(decoded);
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    f64::from(frames) / best
}

/// Frames/sec of the zero-copy fast path: one reused buffer, a shared
/// per-link signature table (as the runtime keeps), and header-only decode
/// — the work the server does for a frame it answers from the reply cache.
fn fastpath_fps(codec: &dyn Protocol, frames: u32, rounds: u32) -> f64 {
    let req = sample_request();
    let mut best = f64::MAX;
    for _ in 0..rounds {
        let mut table = SigTable::new();
        let mut buf = Vec::new();
        let t = Instant::now();
        for i in 0..frames {
            codec
                .encode_request_into(
                    u64::from(i),
                    TraceContext::NONE,
                    &req,
                    Some(&mut table),
                    &mut buf,
                )
                .unwrap();
            let header = codec.decode_request_header(&buf).unwrap();
            std::hint::black_box((header.msg_id, header.kind));
        }
        best = best.min(t.elapsed().as_secs_f64());
    }
    f64::from(frames) / best
}

fn main() {
    let smoke = std::env::var("E13_SMOKE").is_ok();
    let frames: u32 = if smoke { 2_000 } else { 50_000 };
    let rounds: u32 = if smoke { 3 } else { 5 };

    println!(
        "\n=== E13: wire fast path, frames/sec (best of {rounds} rounds × {frames} frames) ==="
    );
    println!(
        "{:<8} | {:>14} | {:>14} | {:>8}",
        "protocol", "baseline f/s", "fast path f/s", "speedup"
    );
    let mut rmi_speedup = 0.0;
    for (name, codec) in [
        ("RMI", Box::new(RmiCodec::new()) as Box<dyn Protocol>),
        ("CORBA", Box::new(CorbaCodec::new())),
        ("SOAP", Box::new(SoapCodec::new())),
    ] {
        let base = baseline_fps(codec.as_ref(), frames, rounds);
        let fast = fastpath_fps(codec.as_ref(), frames, rounds);
        let speedup = fast / base;
        println!("{name:<8} | {base:>14.0} | {fast:>14.0} | {speedup:>7.2}x");
        if name == "RMI" {
            rmi_speedup = speedup;
        }
    }
    println!("expected shape: every protocol gains; RMI (the hot path) must gain >= 2x\n");
    assert!(
        rmi_speedup >= 2.0,
        "zero-copy fast path regressed: RMI speedup {rmi_speedup:.2}x < 2x"
    );
}
