//! Spans the benchmark records around its calls into each layer.
//!
//! The traced run shares one enabled `Telemetry` handle between the
//! session (whose own `session`/`stage`/`compute` spans it already
//! records) and the benchmark's fleet and coordinator-tail calls, so
//! every span lands on one clock, in memory, and is written out once at
//! the end. Untraced runs hold a disabled handle: no clock is read.

use std::time::Instant;

use dordis_telemetry::Telemetry;

/// Records spans into a shared telemetry handle (or nothing).
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    tel: Telemetry,
}

impl Tracer {
    /// A tracer over `tel`; a disabled handle makes every span free.
    #[must_use]
    pub fn new(tel: Telemetry) -> Tracer {
        Tracer { tel }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn on(&self) -> bool {
        self.tel.is_enabled()
    }

    /// Runs `f` inside a `cat`/`name` span of `round`.
    pub fn span<T>(
        &self,
        cat: &'static str,
        name: &'static str,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tel.is_enabled() {
            return f();
        }
        let start = self.tel.now_ns();
        let out = f();
        self.tel
            .record_span(cat, name, round, None, start, self.tel.now_ns());
        out
    }
}

/// Frames, bytes and time of one codec direction on the fleet.
#[derive(Clone, Copy, Debug, Default)]
pub struct CodecTally {
    /// Frames encoded or decoded.
    pub frames: u64,
    /// Bytes of those frames.
    pub bytes: u64,
    /// Wall time inside the codec calls (traced runs only).
    pub ns: u64,
}

impl CodecTally {
    /// Counts one frame of `bytes` bytes.
    pub fn count(&mut self, bytes: usize) {
        self.frames += 1;
        self.bytes += bytes as u64;
    }

    /// Runs the codec call `f`, adding its time when `on`.
    pub fn time<T>(&mut self, on: bool, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        out
    }
}
