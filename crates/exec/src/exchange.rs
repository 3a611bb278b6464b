//! The exchange: the one place rows cross partitions.
//!
//! [`Executor::exchange`] routes every exchange kind once into
//! `routed[from][to]` buckets and assembles them once; the transport mode
//! only picks the carrier of a boundary-crossing bucket, not what it
//! counts. Under a serialized transport that carrier is
//! [`Executor::ship`]: each (sender, receiver) channel is one checked row
//! stream (`lardb_net::stream`) over the worker mesh. What is the
//! exchange's own: an optional trace frame leads the channel, the schema
//! frame must equal the plan's and precede any rows, a channel is failed
//! — never closed — when its sender dies, and every incomplete stream is
//! an [`ExecError`] counted in `exchange.truncations_detected`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use lardb_net::codec::{decode_frame, encode_schema_frame, encode_trace_frame, Frame};
use lardb_net::stream::{frame_sizes, Check, Seal};
use lardb_net::{ChannelTransport, FaultyTransport, Mesh, NetError, Transport, TransportMode};
use lardb_planner::physical::ExchangeKind;
use lardb_planner::Expr;
use lardb_storage::ops::CompositeKey;
use lardb_storage::table::hash_partition;
use lardb_storage::{Row, Schema, Value};

use crate::cluster::{context, flag_abort, panic_message, root_cause};
use crate::CancelToken;
use crate::eval::eval_with;
use crate::executor::{Executor, Parts, CANCEL_CHECK_PAIRS};
use crate::stats::{ChannelStats, ShuffleStats};
use crate::{ExecError, Result};

impl Executor<'_> {
    /// Moves rows between partitions, metering the traffic.
    ///
    /// Every kind is routed once into `routed[from][to]` buckets, each in
    /// source-row order, and `out[to]` is their concatenation over `from`
    /// ascending. The transport mode only picks how a boundary-crossing
    /// bucket travels: `pointer` hands it over as it is and sizes the
    /// frames it would ship ([`size_channels`]); a serialized transport
    /// encodes it, ships it through the worker mesh and decodes it on the
    /// receiving side ([`Self::ship`]). Output rows, their order and every
    /// channel's rows, bytes and frames are identical either way.
    pub(crate) fn exchange(
        &self,
        input: Parts,
        kind: &ExchangeKind,
        schema: &Schema,
    ) -> Result<(Parts, ShuffleStats)> {
        let w = input.len();
        let mut routed: Vec<Parts> = match kind {
            ExchangeKind::Hash(keys) => {
                // One task per partition, straight into its W buckets in
                // source-row order, polling the token as `scan` does.
                let cancel = context().cancel_token().clone();
                self.cluster.par_map(input, |_, rows| {
                    let mut buckets: Parts = vec![Vec::new(); w];
                    let mut scratch = Vec::new();
                    for (i, r) in rows.into_iter().enumerate() {
                        if i % CANCEL_CHECK_PAIRS == 0 && cancel.is_cancelled() {
                            return Err(ExecError::Cancelled("exchange routing cancelled".into()));
                        }
                        buckets[hash_route(&r, keys, w, &mut scratch)?].push(r);
                    }
                    Ok(buckets)
                })?
            }
            // `Row` is Arc-backed: the W copies share row storage.
            ExchangeKind::Broadcast => input.into_iter().map(|rows| vec![rows; w]).collect(),
            ExchangeKind::Gather | ExchangeKind::GatherReplica => input
                .into_iter()
                .enumerate()
                .map(|(from, rows)| {
                    let mut buckets: Parts = vec![Vec::new(); w];
                    // Replicas hold the same rows; worker 0's copy is the
                    // gathered stream and nothing moves.
                    if from == 0 || matches!(kind, ExchangeKind::Gather) {
                        buckets[0] = rows;
                    }
                    buckets
                })
                .collect(),
        };

        // A 1-worker cluster has no partition boundary to cross and
        // GatherReplica moves nothing.
        let shuffle = if w == 1 || matches!(kind, ExchangeKind::GatherReplica) {
            ShuffleStats::default()
        } else if self.mode == TransportMode::Pointer {
            size_channels(&routed, schema, self.net.max_frame_bytes)
        } else {
            let (shipped, shuffle) = self.ship(routed, schema)?;
            routed = shipped;
            shuffle
        };

        let mut out: Parts = vec![Vec::new(); w];
        for buckets in routed {
            for (part, mut bucket) in out.iter_mut().zip(buckets) {
                part.append(&mut bucket);
            }
        }
        Ok((out, shuffle))
    }

    /// The serialized carrier of [`Self::exchange`]: `W` sender threads
    /// encode and ship every boundary-crossing bucket through a [`Mesh`];
    /// `W` receiver threads drain, validate and decode them per sender.
    /// Returns the buckets in the `routed[from][to]` layout they came in:
    /// local buckets (`to == from`) never touch the mesh, every other one
    /// is what its receiver decoded.
    fn ship(&self, routed: Vec<Parts>, schema: &Schema) -> Result<(Vec<Parts>, ShuffleStats)> {
        let w = routed.len();
        let base = Box::new(ChannelTransport {
            max_frame_bytes: self.net.max_frame_bytes,
            ..ChannelTransport::default()
        });
        let transport: Box<dyn Transport> = match &self.net.faults {
            Some(plan) => Box::new(FaultyTransport::new(base, plan.clone())),
            None => base,
        };
        let mesh_box = transport.mesh(w)?;
        let mesh: &dyn Mesh = mesh_box.as_ref();
        let ctx = context();
        let cancel = ctx.cancel_token();
        // When the query is traced, each sender leads every channel with a
        // trace frame carrying the trace id — receivers resolve it against
        // the flight recorder and attribute the channel to the query.
        let trace_id = ctx.trace().map(|t| t.id().0);
        let max = self.net.max_frame_bytes;

        let (sent, received) = std::thread::scope(|s| {
            let receivers: Vec<_> = (0..w)
                .map(|to| {
                    s.spawn(move || {
                        let r = receive_partition(mesh, w, to, schema, cancel);
                        if let Err(e) = &r {
                            flag_abort(cancel, e);
                        }
                        r
                    })
                })
                .collect();
            let senders: Vec<_> = routed
                .into_iter()
                .enumerate()
                .map(|(p, buckets)| {
                    s.spawn(move || {
                        let r = send_partition(mesh, p, buckets, schema, cancel, trace_id, max);
                        if let Err(e) = &r {
                            flag_abort(cancel, e);
                        }
                        r
                    })
                })
                .collect();
            let sent: Vec<_> = senders.into_iter().map(join_exchange_thread).collect();
            let received: Vec<_> = receivers.into_iter().map(join_exchange_thread).collect();
            (sent, received)
        });

        // The fault that flipped the token, not a sibling's echo of it, is
        // the exchange's error (senders before receivers, by index).
        let mut errors = Vec::new();
        let mut routed: Vec<Parts> = Vec::with_capacity(w);
        let mut channels = Vec::new();
        for r in sent {
            match r {
                Ok((buckets, chs)) => {
                    routed.push(buckets);
                    channels.extend(chs);
                }
                Err(e) => errors.push(e),
            }
        }
        let mut inbound: Vec<Parts> = Vec::with_capacity(w);
        for r in received {
            match r {
                Ok(per_from) => inbound.push(per_from),
                Err(e) => errors.push(e),
            }
        }
        if let Some(e) = root_cause(errors) {
            return Err(e);
        }
        for (to, per_from) in inbound.into_iter().enumerate() {
            for (from, rows) in per_from.into_iter().enumerate() {
                if from != to {
                    routed[from][to] = rows;
                }
            }
        }
        channels.sort_by_key(|c| (c.from, c.to));
        Ok((routed, ShuffleStats::from_channels(channels)))
    }
}

/// Joins one exchange worker thread, converting panics to errors.
fn join_exchange_thread<T>(h: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    h.join().unwrap_or_else(|payload| {
        lardb_obs::global().counter("exec.worker_panics").inc();
        Err(ExecError::Runtime(format!(
            "exchange thread panicked: {}",
            panic_message(payload.as_ref())
        )))
    })
}

/// The pointer carrier's meter: each channel that carries rows, sized as
/// [`send_partition`] ships it (the trace frame when traced, the schema
/// frame, the cutter's rows frames, the fin) with no row encoded. With no
/// carrier, no cap refuses a row: one too large to ship is one frame.
fn size_channels(routed: &[Parts], schema: &Schema, max_frame_bytes: usize) -> ShuffleStats {
    let mut fixed = vec![encode_schema_frame(schema), Seal::default().fin()];
    fixed.extend(context().trace().map(|t| encode_trace_frame(t.id().0)));
    let mut channels = Vec::new();
    for (from, buckets) in routed.iter().enumerate() {
        for (to, bucket) in buckets.iter().enumerate() {
            if to == from || bucket.is_empty() {
                continue;
            }
            let mut ch = ChannelStats { from, to, rows: bucket.len(), ..ChannelStats::default() };
            let cuts = frame_sizes(bucket, max_frame_bytes).map(|(_, bytes)| bytes);
            for bytes in fixed.iter().map(Vec::len).chain(cuts) {
                ch.bytes += bytes;
                ch.frames += 1;
            }
            channels.push(ch);
        }
    }
    ShuffleStats::from_channels(channels)
}

/// Sender side of one serialized exchange partition: keeps its local
/// bucket and ships every other one as a checked row stream — an optional
/// trace frame (when the query is traced, so the receiver can attribute
/// the channel), then for a non-empty bucket the schema frame and the
/// rows, cut to fit `max_frame_bytes`; a bucket's rows are freed once
/// shipped. **Every** channel ends with the seal's fin frame — an empty
/// one proves "I really had nothing for you", so a dropped stream can't
/// masquerade as an empty one. The mesh endpoint always ends — closed on
/// success, *failed* on error — so receivers never hang waiting for EOF
/// and a partial stream is never mistaken for a full one. Senders check
/// the query's cancellation token before every frame and stop shuffling
/// as soon as a sibling fails.
fn send_partition(
    mesh: &dyn Mesh,
    p: usize,
    mut buckets: Parts,
    schema: &Schema,
    cancel: &CancelToken,
    trace_id: Option<u64>,
    max_frame_bytes: usize,
) -> Result<(Parts, Vec<ChannelStats>)> {
    let mut channels = Vec::new();
    let send_result = (|| -> Result<()> {
        for (to, slot) in buckets.iter_mut().enumerate() {
            if to == p {
                continue; // never ship to self; local rows stay in-process
            }
            let bucket = std::mem::take(slot);
            let mut seal = Seal::default();
            let mut ch = ChannelStats { from: p, to, ..ChannelStats::default() };
            let mut send = |frame: Vec<u8>| -> Result<()> {
                ch.bytes += frame.len();
                ch.frames += 1;
                if cancel.is_cancelled() {
                    return Err(ExecError::Cancelled("exchange stopped: query aborted".into()));
                }
                let t = Instant::now();
                mesh.send(p, to, frame)?;
                ch.enqueue_block += t.elapsed();
                Ok(())
            };
            if let Some(id) = trace_id {
                send(seal.frame(encode_trace_frame(id)))?;
            }
            if !bucket.is_empty() {
                send(seal.frame(encode_schema_frame(schema)))?;
                for frame in seal.rows(&bucket, max_frame_bytes) {
                    send(frame?)?;
                }
            }
            send(seal.fin())?;
            ch.rows = bucket.len();
            if ch.rows > 0 {
                channels.push(ch);
            }
        }
        Ok(())
    })();
    match &send_result {
        // A clean close is only ever sent after every fin went out.
        Ok(()) => mesh.close(p)?,
        // On failure the endpoint ends abnormally: receivers see a
        // sender error, not EOF, and can never accept the partial stream.
        Err(e) => {
            let _ = mesh.fail(p, &e.to_string());
        }
    }
    send_result?;
    Ok((buckets, channels))
}

/// Receiver side of one serialized exchange partition: drains the mesh
/// until every sender ends, holding each channel to the stream's
/// completeness proof ([`Check`]) and to the exchange's own rule — the
/// schema frame equals the exchange schema and precedes any rows — and
/// buckets decoded rows per sender. On any error it keeps draining (so
/// senders never block forever against a full channel) and reports the
/// first error. A missing or mismatching fin and an abnormal channel end
/// all bump `exchange.truncations_detected`: a dead worker can shorten
/// the answer *only* into an error, never silently.
fn receive_partition(
    mesh: &dyn Mesh,
    w: usize,
    to: usize,
    schema: &Schema,
    cancel: &CancelToken,
) -> Result<Vec<Vec<Row>>> {
    /// One sender's channel.
    #[derive(Default)]
    struct ChannelRecv {
        check: Check,
        schema_seen: bool,
        errored: bool,
        /// Trace id propagated by the sender's leading trace frame.
        trace_id: Option<u64>,
        rows: Vec<Row>,
    }
    let recv_start = Instant::now();
    let truncation = |from: usize, what: String| -> ExecError {
        lardb_obs::global().counter("exchange.truncations_detected").inc();
        ExecError::Runtime(format!("exchange channel {from}→{to} truncated: {what}"))
    };
    let accept = |chan: &mut ChannelRecv, from: usize, bytes: &[u8]| -> Result<()> {
        let frame = decode_frame(bytes).map_err(NetError::from)?;
        chan.check.accept(bytes, &frame).map_err(|e| truncation(from, e.to_string()))?;
        match frame {
            Frame::Schema(s) if s == *schema => chan.schema_seen = true,
            Frame::Schema(_) => {
                return Err(ExecError::Runtime(format!(
                    "exchange schema mismatch from worker {from}"
                )))
            }
            Frame::Rows(rows) if chan.schema_seen => chan.rows.extend(rows),
            Frame::Rows(_) => {
                return Err(ExecError::Runtime(format!(
                    "rows frame before schema frame from worker {from}"
                )))
            }
            // Wire-propagated trace context: the exchange span is recorded
            // once the channel completes.
            Frame::Trace(id) => chan.trace_id = Some(id),
            Frame::Fin(_) => {}
        }
        Ok(())
    };

    let mut chans: Vec<ChannelRecv> = (0..w).map(|_| ChannelRecv::default()).collect();
    let mut first_err: Option<ExecError> = None;
    loop {
        match mesh.recv(to) {
            // After an error, drain to EOF so senders don't deadlock.
            Ok(Some(_)) if first_err.is_some() => {}
            Ok(Some((from, bytes))) => first_err = accept(&mut chans[from], from, &bytes).err(),
            Ok(None) => break,
            Err(NetError::Sender { from, reason }) => {
                // One channel died; its stream is untrustworthy, but the
                // rest must still be drained so no sender deadlocks.
                chans[from].errored = true;
                let e = truncation(from, format!("channel ended abnormally: {reason}"));
                first_err.get_or_insert(e);
            }
            Err(e) => {
                // The whole inbox is gone — nothing left to drain.
                first_err.get_or_insert(e.into());
                break;
            }
        }
    }
    // End of stream: every remote channel must have proven completeness.
    for (from, chan) in chans.iter().enumerate() {
        if from == to || chan.errored || first_err.is_some() {
            continue;
        }
        first_err = chan.check.finish().map_err(|e| truncation(from, e.to_string())).err();
    }
    // Attribute completed channels to their query: resolve each
    // wire-propagated trace id against the flight recorder and record an
    // exchange span on the owning trace. Only ids that resolve to a query
    // still in flight attach — a stale id is silently dropped.
    for (from, chan) in chans.iter().enumerate() {
        let Some(id) = chan.trace_id else { continue };
        if let Some(t) = lardb_obs::recorder().lookup(id) {
            let seen = chan.check.seen();
            t.record(
                "exchange",
                "exchange",
                recv_start,
                recv_start.elapsed(),
                vec![
                    ("from", from.to_string()),
                    ("to", to.to_string()),
                    ("trace_id", format!("{id:016x}")),
                    ("rows", seen.rows.to_string()),
                    ("frames", seen.frames.to_string()),
                ],
            );
        }
    }
    match first_err {
        Some(e) => {
            // Fast abort: tell every sibling to stop shuffling data this
            // query will never use.
            flag_abort(cancel, &e);
            Err(e)
        }
        None => Ok(chans.into_iter().map(|chan| chan.rows).collect()),
    }
}

/// Routes a row to a partition by hashing its key expressions. Single-key
/// routing matches the storage layer's [`hash_partition`] so that tables
/// hash-partitioned at load time co-locate with exchanged streams.
fn hash_route(
    row: &Row,
    keys: &[Expr],
    w: usize,
    scratch: &mut Vec<Value>,
) -> Result<usize> {
    if keys.len() == 1 {
        let v = eval_with(&keys[0], row, scratch)?;
        return Ok(hash_partition(&v, w));
    }
    let mut vals = Vec::with_capacity(keys.len());
    for k in keys {
        vals.push(eval_with(k, row, scratch)?);
    }
    let key = CompositeKey::from_values(vals);
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    Ok((h.finish() % w as u64) as usize)
}
