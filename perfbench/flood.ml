(* flood-1m: a 1000x1000 grid, one Engine.create, then an emit
   [broadcast1] flood for 8 sending rounds, the engine reused across
   trials.  Graph build, engine build and the dense per-message
   send/deliver path do nearly all the work; no core algorithm runs. *)

open Kdom_graph
open Kdom_congest

let name = "flood-1m"

(* The grid's shape, and so all the work, is the same for every seed;
   a second instance gives the setup time a median. *)
let instances = 2
let nominal_call_s = 0.9
let sending_rounds = 8

type ctx = { g : Graph.t; e : Engine.t }
type out = { states : int array; stats : Engine.stats }

let side = function Wl.Full -> 1000 | Wl.Tiny -> 30

(* Every node broadcasts in rounds [0, sending_rounds) and halts after the
   step that receives the last wave. *)
let kernel : int Engine.ealgorithm =
  {
    Engine.einit = (fun _ _ -> 0);
    estep =
      (fun _ ~round ~node:_ _ _ em ->
        if round < sending_rounds then Engine.Emit.broadcast1 em round;
        round + 1);
    ehalted = (fun st -> st > sending_rounds);
    ewake = Engine.always;
  }

let setup sp size ~seed =
  let side = side size in
  let g =
    Span.with_ sp "graph.generate" (fun () ->
        Generators.grid ~rng:(Rng.create seed) ~rows:side ~cols:side)
  in
  let e = Span.with_ sp "engine.create" (fun () -> Engine.create g) in
  { g; e }

let run ?sink ?guard ?(domains = 1) ctx =
  let states, stats = Engine.exec_emit ?sink ?guard ~domains ctx.e kernel in
  { states; stats }

(* Traced, the call runs the same code path as untraced (no sink): the
   span around it is all tracing adds.  Per-round figures come from a
   separate sinked call in [probe]. *)
let exec sp ctx = Span.with_ sp "engine.exec" (fun () -> run ctx)

let check ctx o =
  let m = Graph.m ctx.g in
  let want_messages = 2 * m * sending_rounds in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if o.stats.messages <> want_messages then
    fail "flood: %d messages delivered, want 2*m*%d = %d" o.stats.messages
      sending_rounds want_messages;
  if o.stats.rounds <> sending_rounds + 1 then
    fail "flood: %d rounds, want %d" o.stats.rounds (sending_rounds + 1);
  let unhalted = Array.fold_left (fun acc st -> if kernel.ehalted st then acc else acc + 1) 0 o.states in
  if unhalted > 0 then fail "flood: %d nodes not halted" unhalted;
  let failed = if !errors = [] then 0 else 1 in
  {
    Wl.attempted = 1;
    failed;
    answered = 1 - failed;
    errors = List.rev !errors;
    exact =
      [
        ("rounds", o.stats.rounds);
        ("messages", o.stats.messages);
        ("latency_p50_rounds", o.stats.rounds);
        ("latency_p99_rounds", o.stats.rounds);
      ];
  }

let tamper _ o = { o with stats = { o.stats with messages = o.stats.messages + 1 } }
let inputs ctx = [ ("n", Graph.n ctx.g); ("m", Graph.m ctx.g); ("rounds", sending_rounds + 1) ]

(* Trials per probe: enough for a median, few enough for the 1M grid. *)
let probe_trials = 2

let probe sp ctx =
  let triples = Array.map (fun (e : Graph.edge) -> (e.u, e.v, e.w)) (Graph.edges ctx.g) in
  ignore
    (Span.with_ sp "graph.of_edge_array" (fun () ->
         Graph.of_edge_array ~n:(Graph.n ctx.g) triples));
  let expect o what =
    match (check ctx o).errors with
    | [] -> ()
    | e :: _ -> failwith (Printf.sprintf "flood probe (%s): %s" what e)
  in
  expect (Span.with_ sp "probe.rounds" (fun () -> run ~sink:(Wl.round_sink sp) ctx)) "rounds";
  for _ = 1 to probe_trials do
    expect (Span.with_ sp "probe.plain" (fun () -> run ctx)) "plain";
    expect (Span.with_ sp "probe.guard" (fun () -> run ~guard:true ctx)) "guard";
    expect (Span.with_ sp "probe.d2" (fun () -> run ~domains:2 ctx)) "domains=2"
  done

let layers sp =
  let exec_s = Wl.warm_median sp "engine.exec" in
  let plain = Wl.span_median sp "probe.plain" in
  let guard = Wl.span_median sp "probe.guard" in
  let d2 = Wl.span_median sp "probe.d2" in
  let msgs = Wl.exact_of sp "messages" in
  [
    ("graph.generate_s", Wl.span_median sp "graph.generate");
    ("graph.of_edge_array_s", Wl.span_median sp "graph.of_edge_array");
    ("graph.minor_words", Wl.minor_median sp "graph.generate");
    ("engine.create_s", Wl.span_median sp "engine.create");
    ("engine.cold_exec_s", Wl.cold_dur sp "engine.exec");
    ("engine.exec_s", exec_s);
    ("engine.msgs_per_s", Wl.ratio msgs exec_s);
    ("engine.minor_words_per_msg", Wl.ratio (Wl.minor_median sp "engine.exec") msgs);
    ("engine.d2_exec_s", d2);
    ("engine.d2_speedup", Wl.ratio plain d2);
    ("codec.guard_tax_pct", 100. *. Wl.ratio (guard -. plain) plain);
  ]
  @ Wl.engine_round_layers sp
