//! Memory-access tracing infrastructure.
//!
//! Algorithms in this crate operate on [`TracedBuf`]s — flat `f64` buffers
//! with a base address in a shared word-granularity address space. Every
//! read and write reports its address to the [`Tracer`], which maps words
//! to blocks of `block_words` words each and appends a [`TraceEvent`].
//! Base cases additionally mark progress with [`Tracer::leaf`], giving the
//! replayer the same progress signal the abstract model uses.

use crate::block_map::DistinctBlocks;
use cadapt_core::{Blocks, Leaves};

/// A consumer of instrumented memory accesses and leaf marks.
///
/// The traced kernels are generic over this trait, so one instrumented
/// recursion can either *record* (a [`Tracer`] materialising a
/// [`BlockTrace`]) or *compile* (a `bytecode::TraceCompiler` emitting the
/// compact program directly) — the event stream seen by a sink is
/// identical either way.
pub trait TraceSink {
    /// Report an access (read or write) to word address `addr`.
    fn touch(&mut self, addr: u64);
    /// Report a completed base-case subproblem.
    fn leaf(&mut self);
}

/// One event of a block trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An access (read or write) to the given block.
    Access(u64),
    /// A base-case subproblem completed here.
    Leaf,
}

/// A recorded block-level trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockTrace {
    events: Vec<TraceEvent>,
    distinct_blocks: Blocks,
    accesses: u64,
    leaves: Leaves,
}

impl BlockTrace {
    /// The events, in program order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of distinct blocks touched — the working-set size, i.e. the
    /// trace's "problem size in blocks" for Eq. 2 purposes.
    #[must_use]
    pub fn distinct_blocks(&self) -> Blocks {
        self.distinct_blocks
    }

    /// Total base-case marks.
    #[must_use]
    pub fn leaves(&self) -> Leaves {
        self.leaves
    }

    /// Total accesses (excluding leaf marks). Counted at record time, so
    /// this is O(1) — no per-call scan of the event vector.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Collects a [`BlockTrace`] from instrumented code.
#[derive(Debug)]
pub struct Tracer {
    block_words: u64,
    events: Vec<TraceEvent>,
    seen: DistinctBlocks,
    accesses: u64,
    leaves: Leaves,
}

impl Tracer {
    /// A tracer mapping `block_words` consecutive words to one block.
    ///
    /// # Panics
    ///
    /// Panics if `block_words == 0`.
    #[must_use]
    pub fn new(block_words: u64) -> Self {
        assert!(block_words >= 1, "blocks must hold at least one word");
        Tracer {
            block_words,
            events: Vec::new(),
            seen: DistinctBlocks::default(),
            accesses: 0,
            leaves: 0,
        }
    }

    /// The block size in words.
    #[must_use]
    pub fn block_words(&self) -> u64 {
        self.block_words
    }

    /// Record an access to word address `addr`.
    pub fn touch(&mut self, addr: u64) {
        let block = addr / self.block_words;
        self.seen.insert(block);
        self.accesses += 1;
        self.events.push(TraceEvent::Access(block));
    }

    /// Record a completed base case.
    pub fn leaf(&mut self) {
        self.leaves += 1;
        self.events.push(TraceEvent::Leaf);
    }

    /// Finish tracing.
    #[must_use]
    pub fn into_trace(self) -> BlockTrace {
        BlockTrace {
            events: self.events,
            distinct_blocks: self.seen.len(),
            accesses: self.accesses,
            leaves: self.leaves,
        }
    }
}

impl TraceSink for Tracer {
    fn touch(&mut self, addr: u64) {
        Tracer::touch(self, addr);
    }

    fn leaf(&mut self) {
        Tracer::leaf(self);
    }
}

/// Bump allocator for the traced address space; allocations are
/// block-aligned so distinct buffers never share a block.
#[derive(Debug)]
pub struct AddressSpace {
    next: u64,
    block_words: u64,
}

impl AddressSpace {
    /// A fresh address space with the given block size in words.
    ///
    /// # Panics
    ///
    /// Panics if `block_words == 0`.
    #[must_use]
    pub fn new(block_words: u64) -> Self {
        assert!(block_words >= 1, "blocks must hold at least one word");
        AddressSpace {
            next: 0,
            block_words,
        }
    }

    /// Allocate a zeroed buffer of `words` words.
    #[must_use]
    pub fn alloc(&mut self, words: usize) -> TracedBuf {
        let base = self.next;
        let len = words as u64;
        // Round the next base up to a block boundary.
        let end = base + len;
        self.next = end.div_ceil(self.block_words) * self.block_words;
        TracedBuf {
            base,
            data: vec![0.0; words],
        }
    }

    /// Allocate a buffer initialised from a slice.
    #[must_use]
    pub fn alloc_from(&mut self, values: &[f64]) -> TracedBuf {
        let mut buf = self.alloc(values.len());
        buf.data.copy_from_slice(values);
        buf
    }
}

/// A flat `f64` buffer whose accesses are reported to a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TracedBuf {
    base: u64,
    data: Vec<f64>,
}

impl TracedBuf {
    /// Length in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Is the buffer empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Base word address.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Traced read of word `i`.
    #[must_use]
    pub fn read<S: TraceSink>(&self, i: usize, t: &mut S) -> f64 {
        t.touch(self.base + i as u64);
        self.data[i]
    }

    /// Traced write of word `i`.
    pub fn write<S: TraceSink>(&mut self, i: usize, value: f64, t: &mut S) {
        t.touch(self.base + i as u64);
        self.data[i] = value;
    }

    /// Untraced view of the contents (for verification against references —
    /// never inside traced algorithms).
    #[must_use]
    pub fn untraced(&self) -> &[f64] {
        &self.data
    }
}

// Exact float equality in tests is deliberate: outputs are required to be
// bit-identical run to run (see the golden records).
#[allow(clippy::float_cmp)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_maps_words_to_blocks() {
        let mut t = Tracer::new(4);
        t.touch(0);
        t.touch(3);
        t.touch(4);
        t.touch(11);
        let trace = t.into_trace();
        assert_eq!(
            trace.events(),
            &[
                TraceEvent::Access(0),
                TraceEvent::Access(0),
                TraceEvent::Access(1),
                TraceEvent::Access(2),
            ]
        );
        assert_eq!(trace.distinct_blocks(), 3);
        assert_eq!(trace.accesses(), 4);
    }

    #[test]
    fn leaf_marks_counted() {
        let mut t = Tracer::new(1);
        t.touch(5);
        t.leaf();
        t.leaf();
        let trace = t.into_trace();
        assert_eq!(trace.leaves(), 2);
        assert_eq!(trace.accesses(), 1);
    }

    #[test]
    fn address_space_block_aligns() {
        let mut space = AddressSpace::new(4);
        let a = space.alloc(3);
        let b = space.alloc(5);
        assert_eq!(a.base(), 0);
        assert_eq!(b.base(), 4, "second buffer starts on a fresh block");
        let c = space.alloc(1);
        assert_eq!(c.base(), 12);
    }

    #[test]
    fn buffers_never_share_blocks() {
        let mut space = AddressSpace::new(8);
        let mut tracer = Tracer::new(8);
        let a = space.alloc(3);
        let b = space.alloc(3);
        let _ = a.read(2, &mut tracer);
        let _ = b.read(0, &mut tracer);
        let trace = tracer.into_trace();
        assert_eq!(trace.distinct_blocks(), 2);
    }

    #[test]
    fn traced_read_write_round_trip() {
        let mut space = AddressSpace::new(2);
        let mut tracer = Tracer::new(2);
        let mut buf = space.alloc(4);
        buf.write(1, 2.5, &mut tracer);
        assert_eq!(buf.read(1, &mut tracer), 2.5);
        assert_eq!(buf.untraced()[1], 2.5);
        assert_eq!(tracer.into_trace().accesses(), 2);
    }

    #[test]
    fn alloc_from_copies() {
        let mut space = AddressSpace::new(2);
        let buf = space.alloc_from(&[1.0, 2.0, 3.0]);
        assert_eq!(buf.untraced(), &[1.0, 2.0, 3.0]);
    }
}
