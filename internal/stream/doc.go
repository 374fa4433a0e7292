// Package stream drops the engine's "data is static" assumption: it is
// the streaming-execution subsystem that lets registered relations grow
// while continuous queries run over them.
//
// Three pieces cooperate:
//
//   - Source is the append handle of one growing relation. Batches of
//     timestamped rows feed through the sql engine's append path into
//     the catalog (Relation.Extend: a new snapshot, so running queries
//     keep their consistent view) and, on a distributed engine, every
//     appended byte is billed to the shared fabric as an "ingest"-class
//     QoS flow that contends with queries in the same admission rounds.
//
//   - Hub fans appended batches — column windows of the table — out to
//     Subscriptions. The sql layer owns exactly one Hub per Engine and
//     publishes under its catalog lock, so arrival order is append order —
//     the property that makes windowed group emission order reproduce
//     the batch engine's first-seen order. Publishing never waits on a
//     subscriber: one that falls MaxQueuedRows behind ends with
//     ErrBacklog.
//
//   - Subscription evaluates one compiled continuous query (see
//     sql.Session.Subscribe) over tumbling or sliding event-time
//     windows. Each batch runs through the query's compiled batch filter
//     and projection; events fold into per-pane partial aggregates (pane
//     width = gcd(size, slide)), and a closing window merges deep-copied
//     pane snapshots — reusing the PartialAgg/SpillableAgg machinery the
//     batch and distributed engines already share, so a budget prices
//     the spill of window state to the tiered store exactly as it does
//     a budgeted query's.
//     Emission is watermark-driven (watermark = max event time seen
//     minus the allowed lateness); events behind the watermark but
//     inside a still-open window are accepted and counted late, events
//     whose every window has already emitted are counted dropped.
//
// The subsystem's contract mirrors every layer before it: a closed
// stream's final windowed results are row-for-row identical to the
// batch engine's answer over the fully materialized relation (assert
// DroppedEvents == 0 — a dropped event is in the relation but missed
// its window), and an engine with no streams configured touches none of
// this code.
package stream
