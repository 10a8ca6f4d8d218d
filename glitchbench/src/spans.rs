//! In-memory span recording around the public calls the benchmark
//! makes, and the forwarding [`Probe`] source that puts the production
//! campaign's `trace_block` calls under a span.
//!
//! Spans are kept in memory for the whole run and written out once at
//! the end ([`SpanLog::to_json`]). A span's self time is its duration
//! minus the time its child spans cover ([`SpanLog::child_ns`]).

use gm_leakage::{BlockLayout, Class, TraceSource};
use gm_obs::Report;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id within the log (1-based; 0 means "no parent").
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Campaign worker (fork stream) that ran it; 0 on the driver thread.
    pub worker: u64,
    /// Block index within the worker (one id per acquisition block).
    pub block: u64,
    /// Start and end, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`SpanLog::close`] records it.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Id children should name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 for a root).
    pub fn open(&self, name: &'static str, parent: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open { id, parent, name, start_ns: self.now_ns() }
    }

    /// Close `open` and keep it, tagged with its worker and block.
    pub fn close(&self, open: Open, worker: u64, block: u64) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            worker,
            block,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span log poisoned by a panicking worker").push(span);
        span
    }

    /// Run `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> (T, Span) {
        let open = self.open(name, parent);
        let out = f();
        (out, self.close(open, 0, 0))
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned by a panicking worker").clone()
    }

    /// Total duration of the spans named `name` that are children of
    /// `parent`.
    pub fn child_ns(&self, parent: u64, name: &str) -> u64 {
        self.spans().iter().filter(|s| s.parent == parent && s.name == name).map(Span::ns).sum()
    }

    /// All spans as a JSON array (times in ns since the log's epoch).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"worker\": {}, \"block\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.worker, s.block, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// One block's (fixed, random) rows, row-major.
pub type Rows = (Vec<f64>, Vec<f64>);

/// Added to the first fixed-class sample of every block when a
/// [`Probe`] injects a wrong result.
pub const CORRUPTION: f64 = 1e-3;

/// Forwarding [`TraceSource`]: every call goes to the wrapped source
/// unchanged. With a span log attached, each `trace_block` call becomes
/// an `acquire` span under the campaign span whose id is in `parent`;
/// with `corrupt` set, the source's output is deliberately perturbed
/// (the benchmark's own self-test of its correctness checks). Neither
/// touches an RNG stream, so an uncorrupted probe's campaign result is
/// bit-identical to the bare source's.
pub struct Probe<S> {
    inner: S,
    log: Option<Arc<SpanLog>>,
    parent: Arc<AtomicU64>,
    corrupt: bool,
    worker: u64,
    blocks: u64,
    /// The first block's rows, kept for the moments pass.
    capture: Arc<Mutex<Option<Rows>>>,
}

impl<S: TraceSource> Probe<S> {
    /// Wrap `inner`; `log` turns span recording on.
    pub fn new(inner: S, log: Option<Arc<SpanLog>>, corrupt: bool) -> Self {
        Probe {
            inner,
            log,
            parent: Arc::new(AtomicU64::new(0)),
            corrupt,
            worker: 0,
            blocks: 0,
            capture: Arc::new(Mutex::new(None)),
        }
    }

    /// Make the campaign span `id` the parent of later `acquire` spans
    /// (shared with every fork).
    pub fn set_parent(&self, id: u64) {
        // Relaxed: the id publishes no other data, and the campaign
        // spawns its workers after this store.
        self.parent.store(id, Ordering::Relaxed);
    }

    /// The first acquired block, split by class into row-major rows.
    pub fn captured(&self) -> Option<Rows> {
        self.capture.lock().expect("capture poisoned by a panicking worker").clone()
    }
}

impl<S: TraceSource> TraceSource for Probe<S> {
    fn fork(&self, stream: u64) -> Self {
        Probe {
            inner: self.inner.fork(stream),
            log: self.log.clone(),
            parent: Arc::clone(&self.parent),
            corrupt: self.corrupt,
            worker: stream,
            blocks: 0,
            capture: Arc::clone(&self.capture),
        }
    }

    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }

    fn trace(&mut self, class: Class, out: &mut [f64]) {
        self.inner.trace(class, out);
    }

    fn trace_block(
        &mut self,
        labels: &[Class],
        fixed: &mut [f64],
        random: &mut [f64],
    ) -> (usize, usize) {
        let open =
            self.log.as_ref().map(|l| l.open("acquire", self.parent.load(Ordering::Relaxed)));
        let (nf, nr) = self.inner.trace_block(labels, fixed, random);
        if let (Some(log), Some(open)) = (&self.log, open) {
            log.close(open, self.worker, self.blocks);
            let ns = self.inner.num_samples();
            let mut capture = self.capture.lock().expect("capture poisoned by a panicking worker");
            if capture.is_none() {
                *capture = Some((fixed[..nf * ns].to_vec(), random[..nr * ns].to_vec()));
            }
        }
        self.blocks += 1;
        if self.corrupt && nf > 0 {
            fixed[0] += CORRUPTION;
        }
        (nf, nr)
    }

    fn block_layout(&self) -> BlockLayout {
        self.inner.block_layout()
    }

    fn obs_report(&self, report: &mut Report) {
        self.inner.obs_report(report);
    }
}
