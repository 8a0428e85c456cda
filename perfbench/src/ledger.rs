//! Span ledger for the traced run: host-clock spans around every call
//! the benchmark makes into a layer, with self time and self allocations
//! (a span's own cost minus what its nested spans covered), plus plain
//! counters recorded at the same boundaries.
//!
//! Spans and counters are fixed enums so recording never allocates and
//! never perturbs the allocation counts it reports. Everything is a no-op
//! unless [`crate::alloc::tracing`] is on.

use crate::alloc;
use std::cell::RefCell;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    SimnetNext,
    SimnetSend,
    SourceApply,
    SourceQuery,
    MultiviewUpdate,
    MultiviewAnswer,
    ServePublish,
    ServeNoteDelivery,
    ServePin,
    ServeReadPoint,
    ServeReadScan,
    ServePoll,
    EvalView,
    Oracle,
}

impl Span {
    pub const ALL: [Span; 14] = [
        Span::SimnetNext,
        Span::SimnetSend,
        Span::SourceApply,
        Span::SourceQuery,
        Span::MultiviewUpdate,
        Span::MultiviewAnswer,
        Span::ServePublish,
        Span::ServeNoteDelivery,
        Span::ServePin,
        Span::ServeReadPoint,
        Span::ServeReadScan,
        Span::ServePoll,
        Span::EvalView,
        Span::Oracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::SimnetNext => "simnet.next",
            Span::SimnetSend => "simnet.send",
            Span::SourceApply => "source.apply",
            Span::SourceQuery => "source.query",
            Span::MultiviewUpdate => "multiview.update",
            Span::MultiviewAnswer => "multiview.answer",
            Span::ServePublish => "serve.publish",
            Span::ServeNoteDelivery => "serve.note_delivery",
            Span::ServePin => "serve.pin",
            Span::ServeReadPoint => "serve.read_point",
            Span::ServeReadScan => "serve.read_scan",
            Span::ServePoll => "serve.poll",
            Span::EvalView => "relational.eval_view",
            Span::Oracle => "check.oracle",
        }
    }

    /// The layer a span's self time is charged to in the share table.
    pub fn layer(self) -> &'static str {
        match self {
            Span::SimnetNext | Span::SimnetSend => "simnet",
            Span::SourceApply | Span::SourceQuery => "source",
            Span::MultiviewUpdate | Span::MultiviewAnswer => "multiview",
            Span::ServePublish | Span::ServeNoteDelivery => "serve.write",
            Span::ServePin | Span::ServeReadPoint | Span::ServeReadScan | Span::ServePoll => {
                "serve.read"
            }
            Span::EvalView => "relational",
            Span::Oracle => "check",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    SendBytes,
    PendingMax,
    ApplyTuples,
    QueryTuplesIn,
    QueryTuplesOut,
    PublishDeltaTuples,
    ScanTuples,
    PollDeltas,
    EvalTuplesOut,
    OracleTuples,
}

const COUNTERS: usize = 10;

#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    pub calls: u64,
    pub self_ns: u64,
    pub self_allocs: u64,
}

#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub spans: [SpanStat; Span::ALL.len()],
    pub counters: [u64; COUNTERS],
}

impl Totals {
    pub fn span(&self, s: Span) -> SpanStat {
        self.spans[s as usize]
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    pub fn add(&mut self, other: &Totals) {
        for (a, b) in self.spans.iter_mut().zip(&other.spans) {
            a.calls += b.calls;
            a.self_ns += b.self_ns;
            a.self_allocs += b.self_allocs;
        }
        for (i, (a, b)) in self.counters.iter_mut().zip(&other.counters).enumerate() {
            *a = if i == Counter::PendingMax as usize {
                (*a).max(*b)
            } else {
                *a + b
            };
        }
    }
}

struct Frame {
    span: Span,
    start: Instant,
    start_allocs: u64,
    child_ns: u64,
    child_allocs: u64,
}

struct Ledger {
    stack: Vec<Frame>,
    totals: Totals,
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger {
        stack: Vec::with_capacity(16),
        totals: Totals::default(),
    });
}

/// Run `f` inside span `s` when tracing, or just run it.
#[inline]
pub fn span<R>(s: Span, f: impl FnOnce() -> R) -> R {
    if !alloc::tracing() {
        return f();
    }
    enter(s);
    let r = f();
    exit();
    r
}

fn enter(span: Span) {
    LEDGER.with_borrow_mut(|l| {
        debug_assert!(l.stack.len() < l.stack.capacity(), "span nesting too deep");
        l.stack.push(Frame {
            span,
            start_allocs: alloc::allocs(),
            child_ns: 0,
            child_allocs: 0,
            start: Instant::now(),
        });
    });
}

fn exit() {
    let end = Instant::now();
    let end_allocs = alloc::allocs();
    LEDGER.with_borrow_mut(|l| {
        let f = l.stack.pop().expect("span exit without enter");
        let ns = end.duration_since(f.start).as_nanos() as u64;
        let allocs = end_allocs - f.start_allocs;
        let stat = &mut l.totals.spans[f.span as usize];
        stat.calls += 1;
        stat.self_ns += ns.saturating_sub(f.child_ns);
        stat.self_allocs += allocs.saturating_sub(f.child_allocs);
        if let Some(parent) = l.stack.last_mut() {
            parent.child_ns += ns;
            parent.child_allocs += allocs;
        }
    });
}

/// Add `n` to counter `c` (or raise it to `n`, for `PendingMax`).
#[inline]
pub fn count(c: Counter, n: u64) {
    if !alloc::tracing() {
        return;
    }
    LEDGER.with_borrow_mut(|l| {
        let slot = &mut l.totals.counters[c as usize];
        *slot = if c == Counter::PendingMax {
            (*slot).max(n)
        } else {
            *slot + n
        };
    });
}

/// Take the totals recorded since the last call and start from zero.
pub fn take() -> Totals {
    LEDGER.with_borrow_mut(|l| {
        debug_assert!(l.stack.is_empty(), "take() inside an open span");
        std::mem::take(&mut l.totals)
    })
}
