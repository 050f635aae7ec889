(* serve-hotspot: a 316x316 grid served through the FastDOM_G (k = 4)
   cluster forest.  100,000 hotspot requests (60% lookup, 20% publish,
   20% route, Zipf 1.2 origins) are injected open-loop at rounds uniform
   in [0, 32), so the schedule does not depend on system state.  Sparse
   rounds with a tiny frontier and 4-word guarded frames: the run is
   dominated by per-round scheduler cost and queueing at hot origins and
   dominators.

   The requests are ten Workload.hotspot timelines of 10,000 each.  One
   Zipf 1.2 ranking puts a fifth of all traffic on a single node, so the
   depth of that one node in its cluster would decide messages and run
   time (they varied by 20% across seeds); ten rankings keep them within
   a few percent. *)

open Kdom_graph
open Kdom_congest
open Kdom

let name = "serve-hotspot"
let instances = 3
let nominal_call_s = 2.2
let k = 4
let window = 32
let timelines = 10

type ctx = { g : Graph.t; cfg : Serve.config; e : Engine.t }
type out = { report : Serve.report; stats : Engine.stats }

let side = function Wl.Full -> 316 | Wl.Tiny -> 30
let requests = function Wl.Full -> 100_000 | Wl.Tiny -> 1_000

(* Horizon and retry timer as the [serve] mode of bench/main.ml derives
   them: a hotspot origin drains one frame per round, so both must cover
   its whole batch. *)
let config g plan reqs =
  let dmax = Array.fold_left max 0 plan.Repair.depth in
  let per = Array.make (Graph.n g) 0 in
  Array.iter (fun (r : Serve.request) -> per.(r.origin) <- per.(r.origin) + 1) reqs;
  let batch = Array.fold_left max 0 per in
  let retry_after = (4 * dmax) + 8 + batch in
  let retries = 2 in
  let horizon = window + batch + (4 * dmax) + ((retries + 1) * retry_after) + 32 in
  { Serve.plan; requests = reqs; horizon; retry_after; retries }

let setup sp size ~seed =
  let side = side size in
  let g =
    Span.with_ sp "graph.generate" (fun () ->
        Generators.grid ~rng:(Rng.create seed) ~rows:side ~cols:side)
  in
  let dom = Span.with_ sp "fastdom_g.run" (fun () -> Fastdom_graph.run g ~k) in
  let plan =
    Span.with_ sp "cluster.plan_of_partition" (fun () -> Cluster.plan_of_partition dom.partition)
  in
  let reqs =
    Span.with_ sp "workload.generate" (fun () ->
        Array.concat
          (List.init timelines (fun i ->
               Workload.generate g plan Workload.hotspot
                 ~seed:((seed * 16) + i + 1)
                 ~requests:(requests size / timelines) ~window)))
  in
  let cfg = config g plan reqs in
  let e = Span.with_ sp "engine.create" (fun () -> Engine.create g) in
  { g; cfg; e }

let run ?sink ?(guard = true) ctx =
  let states, stats = Serve.run ?sink ~guard ctx.e ctx.cfg in
  { report = Serve.decode ctx.cfg states; stats }

(* Traced, Serve.run runs as untraced (no sink); per-round figures come
   from a separate sinked call in [probe]. *)
let exec sp ctx =
  let states, stats = Span.with_ sp "serve.run" (fun () -> Serve.run ~guard:true ctx.e ctx.cfg) in
  let report = Span.with_ sp "serve.decode" (fun () -> Serve.decode ctx.cfg states) in
  { report; stats }

let check ctx o =
  let r = o.report in
  let attempted = Array.length ctx.cfg.requests in
  let oracle = Serve.check ctx.g ctx.cfg r in
  let errors =
    (if oracle = [] then [] else [ "serve: " ^ Oracle.describe oracle ])
    @ if r.lost > 0 then [ Printf.sprintf "serve: %d requests lost in a fault-free run" r.lost ] else []
  in
  let failed = attempted - r.answered in
  let failed = if errors <> [] && failed = 0 then 1 else failed in
  {
    Wl.attempted;
    failed;
    answered = r.answered;
    errors;
    exact =
      [
        ("rounds", o.stats.rounds);
        ("messages", o.stats.messages);
        ("latency_p50_rounds", Serve.percentile r.latencies 50);
        ("latency_p99_rounds", Serve.percentile r.latencies 99);
        ("serve.requests", attempted);
        ("serve.frames", r.frames);
        ("serve.queue_peak", r.queue_peak);
        ("serve.retries_used", r.retries_used);
        ("serve.stray", r.stray);
      ];
  }

(* Name the wrong dominator in the first answer. *)
let tamper ctx o =
  let outcomes = Array.copy o.report.outcomes in
  let n = Graph.n ctx.g in
  (match
     Array.find_index (function Serve.Answered _ -> true | _ -> false) outcomes
   with
  | Some i -> (
    match outcomes.(i) with
    | Serve.Answered a -> outcomes.(i) <- Serve.Answered { a with answer = (a.answer + 1) mod n }
    | _ -> ())
  | None -> ());
  { o with report = { o.report with outcomes } }

let inputs ctx =
  [
    ("n", Graph.n ctx.g);
    ("m", Graph.m ctx.g);
    ("requests", Array.length ctx.cfg.requests);
    ("rounds", ctx.cfg.horizon);
  ]

(* One unguarded execution, to price the CRC guard word on this traffic
   against the untraced guarded calls perfbench.ml notes; one sinked
   execution for the per-round figures. *)
let probe sp ctx =
  let expect o what =
    match (check ctx o).errors with
    | [] -> ()
    | e :: _ -> failwith (Printf.sprintf "serve probe (%s): %s" what e)
  in
  expect (Span.with_ sp "probe.unguarded" (fun () -> run ~guard:false ctx)) "unguarded";
  expect (Span.with_ sp "probe.rounds" (fun () -> run ~sink:(Wl.round_sink sp) ctx)) "rounds"

(* Serve.run is Serve's algorithm executed by one Engine.exec_emit, so it
   gives the engine figures; serve.run_s adds Serve.decode, the rest of the
   serving call. *)
let layers sp =
  let msgs = Wl.exact_of sp "messages" in
  let frames = Wl.exact_of sp "serve.frames" in
  let engine_exec_s = Wl.warm_median sp "serve.run" in
  let guarded = Wl.median (Span.notes sp "untraced.exec_s") in
  let unguarded = Wl.span_median sp "probe.unguarded" in
  [
    ("graph.generate_s", Wl.span_median sp "graph.generate");
    ("graph.minor_words", Wl.minor_median sp "graph.generate");
    ("fastdom_g.run_s", Wl.span_median sp "fastdom_g.run");
    ("cluster.plan_s", Wl.span_median sp "cluster.plan_of_partition");
    ("workload.generate_s", Wl.span_median sp "workload.generate");
    ("engine.create_s", Wl.span_median sp "engine.create");
    ("engine.cold_exec_s", Wl.cold_dur sp "serve.run");
    ("engine.exec_s", engine_exec_s);
    ("engine.msgs_per_s", Wl.ratio msgs engine_exec_s);
    ("engine.minor_words_per_msg", Wl.ratio (Wl.minor_median sp "serve.run") msgs);
    ("codec.guard_tax_pct", 100. *. Wl.ratio (guarded -. unguarded) unguarded);
    ("serve.run_s", Wl.warm_median sp "exec");
    ("serve.latency_p50_rounds", Wl.exact_of sp "latency_p50_rounds");
    ("serve.frames_per_request", Wl.ratio frames (Wl.exact_of sp "serve.requests"));
    ("serve.queue_peak", Wl.exact_of sp "serve.queue_peak");
    ("serve.retries_used", Wl.exact_of sp "serve.retries_used");
    ("serve.stray_frac", Wl.ratio (Wl.exact_of sp "serve.stray") frames);
  ]
  @ Wl.engine_round_layers sp
