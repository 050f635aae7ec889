(** The reference simulator: the executable specification of the CONGEST
    model this library simulates.

    The paper's model (§1.2): a synchronous network where each message
    carries [O(log n)] bits and a node may send at most one message over
    each incident edge per time unit.  Timing convention: in round
    [t >= 0] every node receives the messages sent in round [t-1], runs
    its step, and emits at most one message per incident edge.  The run
    stops when every node has halted and no message is in flight, or
    raises {!Engine.Round_limit_exceeded} once [max_rounds] is exceeded
    (the caller sets [max_rounds] from the bound it is trying to
    validate).

    This is deliberately the simple implementation — frames are boxed
    [(src, payload)] lists collected with {!Engine.collect_step}, neighbor
    checks search the adjacency, every node is swept every round and wake
    hints are ignored.  {!Engine.exec_emit} must be indistinguishable from
    it; [test_engine_diff] checks that differentially.  Do not use it on
    large instances. *)

open Kdom_graph

val run :
  ?max_rounds:int ->
  ?max_words:int ->
  ?sink:Engine.Sink.t ->
  ?churn:Engine.Churn.t ->
  ?guard:bool ->
  ?corrupt:Engine.Corrupt.spec ->
  Graph.t ->
  'st Engine.ealgorithm ->
  'st array * Engine.stats
(** Execute to quiescence.  Same results as {!Engine.exec_emit}: final
    states, [stats], and [Congestion_violation]s with identical messages.
    Its [sink] reports [skipped = 0] and [woken = 0] — the projection the
    sparse scheduler's round records must agree with modulo those
    counters.  [max_rounds] and [max_words] default as in the engine.

    [churn] applies the same fail-stop / edge-down schedule as
    [Engine.exec_emit ?churn] with identical semantics (the schedule is
    reset on entry, so one compiled value can drive an engine run and a
    reference run in sequence).  The schedule must have been compiled
    against an engine for the same graph.

    [guard] and [corrupt] mirror [Engine.exec_emit ?guard ?corrupt]: with
    the guard on, every frame is charged one extra CRC wire word in the
    bit accounting, and a [corrupt] spec applies the engine's
    deterministic wire-corruption model — the verdicts are keyed on the
    engine's out-port slot ids (the reference builds the same port map),
    so both simulators drop, truncate, or deliver the same CRC-colliding
    garbled frames bit-identically. *)
