//! Host-side observation: the one wall-clock read, the core count,
//! and the in-memory span recorder of the traced pass.

use std::time::Instant;

/// The benchmark's only wall-clock read. Everything that reports
/// *host* time goes through here; nothing in the simulated stack can
/// observe it, so replays stay a pure function of (config, seed).
pub fn host_now() -> Instant {
    // rio-lint: allow(D2) measuring host time is this package's purpose; the reading never enters the simulation
    Instant::now()
}

/// Logical cores available to this process (printed with every report
/// because host-time numbers depend on it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a timed call into a layer's public entry point.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, `<layer>.<entry point>`.
    pub name: &'static str,
    /// Index of the span that caused this one (`None` for a root).
    pub parent: Option<usize>,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Spans kept in memory and written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder for `workload`; span times count from now.
    pub fn new(workload: &'static str) -> Self {
        Spans {
            origin: host_now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured by the caller and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            workload: self.workload,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Opens a span that encloses others; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = host_now();
        self.record(name, parent, now, now)
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(host_now());
    }

    /// Self time of span `id`: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The recorded spans, in opening order (ids are indices).
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}
