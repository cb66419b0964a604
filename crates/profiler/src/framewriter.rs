//! Live trace shipping: the Profiler side of the `mcc serve` protocol.
//!
//! Where [`crate::tracefile`] logs events to local disk for later batch
//! analysis, [`TraceFrameWriter`] encodes the same events as
//! [`mcc_serve::proto`] frames and ships them to a running daemon as the
//! program executes, so the check happens online.
//!
//! The writer owns the socket and the control frames; numbering events
//! and shaping them for the wire is [`mcc_serve::proto::StreamEncoder`]'s
//! job — the same encoder `mcc submit` uses, so a live run and a
//! recorded trace cannot drift apart on the wire. By default every event
//! goes out immediately as its own JSON `Event` frame — the safe shape
//! against any server. After reading the daemon's `Welcome`, a caller
//! that saw the `binary` capability can switch on
//! [`set_batching`](TraceFrameWriter::set_batching): events then
//! accumulate client-side into columnar `Batch` frames, one write per
//! batch. The daemon ingests an `Event` as a batch of one, so the two
//! shapes differ only in bytes on the wire. Call
//! [`flush`](TraceFrameWriter::flush) at any latency boundary;
//! [`finish`](TraceFrameWriter::finish) always flushes.

use mcc_codec::CodecKind;
use mcc_serve::proto::{encode_frame_with, Frame, SessionOpts, StreamEncoder, PROTOCOL_VERSION};
use mcc_types::{EventKind, Rank, SourceLoc, Trace};
use std::io::{self, Write};

/// Encodes a run's events as daemon frames onto any byte sink.
///
/// The writer emits the `Hello` on construction, events on
/// [`event`](TraceFrameWriter::event) calls (immediately, or batched —
/// see [`set_batching`](TraceFrameWriter::set_batching)), and the
/// `Finish` on [`finish`](TraceFrameWriter::finish) — which hands the
/// sink back so the caller can read the daemon's `Report` off the same
/// socket.
pub struct TraceFrameWriter<W: Write> {
    sink: W,
    nprocs: usize,
    /// Numbers the events and shapes them for the wire; control frames
    /// are always JSON.
    encoder: StreamEncoder,
}

impl<W: Write> TraceFrameWriter<W> {
    /// Opens a session for `nprocs` ranks: writes the `Hello` frame.
    /// Batching starts off; see
    /// [`set_batching`](TraceFrameWriter::set_batching).
    pub fn new(mut sink: W, nprocs: usize, opts: SessionOpts) -> io::Result<Self> {
        sink.write_all(&encode_frame_with(
            &Frame::Hello { version: PROTOCOL_VERSION, nprocs: nprocs as u32, opts },
            CodecKind::Json,
        ))?;
        sink.flush()?;
        Ok(Self { sink, nprocs, encoder: StreamEncoder::new(0, CodecKind::Json, 1) })
    }

    /// Switches the event stream's shape, typically after reading the
    /// daemon's `Welcome`: `codec` for event frames, and `batch_size`
    /// events per columnar `Batch` frame (clamped to
    /// [`mcc_serve::proto::MAX_BATCH_EVENTS`]; `0` or `1`, or the JSON
    /// codec, means one frame per event). Flushes anything already
    /// pending under the old shape first.
    pub fn set_batching(&mut self, codec: CodecKind, batch_size: usize) -> io::Result<()> {
        self.flush()?;
        self.encoder = StreamEncoder::new(self.encoder.next_seq(), codec, batch_size);
        Ok(())
    }

    /// Ranks this session covers.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Events shipped (or pending) so far.
    pub fn events(&self) -> u64 {
        self.encoder.next_seq()
    }

    /// Ships one event, numbered with the session's next sequence.
    /// With batching on, the event may sit client-side until the batch
    /// fills or [`flush`](TraceFrameWriter::flush) is called.
    pub fn event(&mut self, rank: Rank, kind: EventKind, loc: SourceLoc) -> io::Result<()> {
        self.encoder.push(rank.0, kind, &loc).map_or(Ok(()), |frame| self.sink.write_all(&frame))
    }

    /// Writes any pending batch.
    pub fn flush(&mut self) -> io::Result<()> {
        self.encoder.flush().map_or(Ok(()), |frame| self.sink.write_all(&frame))
    }

    /// Ends the stream with a `Finish` frame (flushing any pending
    /// batch) and returns the sink, so the daemon's `Report` can be read
    /// from the same connection.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush()?;
        self.sink.write_all(&encode_frame_with(&Frame::Finish, CodecKind::Json))?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

/// Ships a recorded trace event by event (ranks interleaved round-robin,
/// the order live instrumentation would produce) and returns the sink
/// positioned after the `Finish` frame. Per-event JSON frames — the
/// shape any server accepts without negotiation.
pub fn ship_trace<W: Write>(sink: W, trace: &Trace, opts: SessionOpts) -> io::Result<W> {
    ship_trace_with(sink, trace, opts, CodecKind::Json, 1)
}

/// [`ship_trace`] with an explicit event-stream shape (the caller has
/// seen the daemon's capabilities).
pub fn ship_trace_with<W: Write>(
    sink: W,
    trace: &Trace,
    opts: SessionOpts,
    codec: CodecKind,
    batch_size: usize,
) -> io::Result<W> {
    let mut w = TraceFrameWriter::new(sink, trace.nprocs(), opts)?;
    w.set_batching(codec, batch_size)?;
    for (rank, kind, loc) in trace.stream_order() {
        w.event(rank, kind, loc)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_serve::proto::{EventBatch, FrameReader};
    use mcc_types::TraceBuilder;

    fn two_rank_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        b.push_at(
            Rank(0),
            EventKind::Barrier { comm: mcc_types::CommId::WORLD },
            SourceLoc::unknown(),
        );
        b.push_at(
            Rank(1),
            EventKind::Barrier { comm: mcc_types::CommId::WORLD },
            SourceLoc::unknown(),
        );
        b.build()
    }

    #[test]
    fn shipped_frames_decode_back_in_order() {
        let trace = two_rank_trace();
        let bytes = ship_trace(Vec::new(), &trace, SessionOpts::default()).unwrap();
        let mut reader = FrameReader::new(&bytes[..]);
        let mut frames = Vec::new();
        while let Some(f) = reader.next_frame().unwrap() {
            frames.push(f);
        }
        assert!(matches!(frames.first(), Some(Frame::Hello { nprocs: 2, .. })));
        assert!(matches!(frames.last(), Some(Frame::Finish)));
        let events = frames.iter().filter(|f| matches!(f, Frame::Event { .. })).count();
        assert_eq!(events, 2);
    }

    #[test]
    fn batched_shipping_carries_the_same_events_in_batch_frames() {
        let trace = two_rank_trace();
        let bytes =
            ship_trace_with(Vec::new(), &trace, SessionOpts::default(), CodecKind::Binary, 256)
                .unwrap();
        let mut reader = FrameReader::new(&bytes[..]);
        let mut frames = Vec::new();
        while let Some(f) = reader.next_frame().unwrap() {
            frames.push(f);
        }
        assert!(matches!(frames.first(), Some(Frame::Hello { nprocs: 2, .. })));
        assert!(matches!(frames.last(), Some(Frame::Finish)));
        let batched: Vec<&EventBatch> = frames
            .iter()
            .filter_map(|f| match f {
                Frame::Batch(b) => Some(b),
                _ => None,
            })
            .collect();
        assert_eq!(batched.len(), 1, "two events fit one batch frame");
        assert_eq!(batched[0].first_seq, 0);
        assert_eq!(batched[0].len(), 2);
        assert!(batched[0].validate().is_ok());
    }
}
