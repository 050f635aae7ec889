(* mst-grid: the paper's headline application, FastMST on a 128x128 grid
   with distinct random weights, root 0.  The phase-level core
   (SimpleMST, FastDOM_T) does most of the work; the engine runs only
   inside the list-shaped BFS tree and Pipeline.  Setup is small. *)

open Kdom_graph
open Kdom

let name = "mst-grid"

(* The weights set the SimpleMST phases: rounds vary by about 10% from
   one seed to the next, call time by up to 1.6x, while repeats on one
   instance agree within a few percent.  So a run measures many instances
   with few repeats each; setup is cheap. *)
let instances = 12
let nominal_call_s = 0.8

type ctx = {
  g : Graph.t;
  side : int;
  mutable truth : (Graph.edge list * int) option;
      (* Kruskal's MST and the diameter, computed by the first check *)
}

type out = {
  mst : Graph.edge list;
  stages : (string * int) list;  (* ledger stage -> rounds *)
  bfs_messages : int;
  pipeline_messages : int;
}

let side = function Wl.Full -> 128 | Wl.Tiny -> 30

let setup sp size ~seed =
  let side = side size in
  let g =
    Span.with_ sp "graph.generate" (fun () ->
        Generators.grid ~rng:(Rng.create seed) ~rows:side ~cols:side)
  in
  { g; side; truth = None }

(* Fast_mst's fragment parameter: k = ceil (sqrt n). *)
let isqrt_ceil n =
  let rec go k = if k * k >= n then k else go (k + 1) in
  go 1

let stage_names =
  [
    ("FastDOM_G (k = ceil sqrt n)", "fastdom_g");
    ("BFS tree", "bfs");
    ("Pipeline upcast", "pipeline");
    ("Result broadcast", "broadcast");
  ]

(* Untraced: the one public call.  Traced: the same composition as
   [Fast_mst.run], one public call per layer, so each gets a span; the
   exact counts of the two must agree. *)
let exec sp ctx =
  let g = ctx.g in
  if not (Span.enabled sp) then begin
    let r = Fast_mst.run ~root:0 g in
    {
      mst = r.mst;
      stages =
        List.map (fun (label, rounds) -> (List.assoc label stage_names, rounds)) (Ledger.entries r.ledger);
      bfs_messages = r.bfs_stats.messages;
      pipeline_messages = r.pipeline.upcast_stats.messages;
    }
  end
  else begin
    let bfs, bfs_stats = Span.with_ sp "bfs_tree.run" (fun () -> Bfs_tree.run g ~root:0) in
    let k = isqrt_ceil (Graph.n g) in
    let dom = Span.with_ sp "fastdom_g.run" (fun () -> Fastdom_graph.run g ~k) in
    let fragment_of =
      Span.with_ sp "simple_mst.fragment_of_array" (fun () ->
          Simple_mst.fragment_of_array g dom.forest)
    in
    let pipe = Span.with_ sp "pipeline.run" (fun () -> Pipeline.run g ~bfs ~fragment_of) in
    let mst =
      Span.with_ sp "simple_mst.spanning_forest_edges" (fun () ->
          Simple_mst.spanning_forest_edges dom.forest @ pipe.selected
          |> List.sort (fun (a : Graph.edge) b -> compare a.id b.id))
    in
    {
      mst;
      stages =
        [
          ("fastdom_g", dom.rounds);
          ("bfs", bfs_stats.rounds);
          ("pipeline", pipe.upcast_stats.rounds);
          ("broadcast", pipe.broadcast_rounds);
        ];
      bfs_messages = bfs_stats.messages;
      pipeline_messages = pipe.upcast_stats.messages;
    }
  end

let truth ctx =
  match ctx.truth with
  | Some t -> t
  | None ->
    let t = (Mst.kruskal ctx.g, Traversal.eccentricity ctx.g 0) in
    ctx.truth <- Some t;
    t

let check ctx o =
  let kruskal, diam = truth ctx in
  let n = Graph.n ctx.g in
  let rounds = List.fold_left (fun acc (_, r) -> acc + r) 0 o.stages in
  let bound = Fast_mst.round_bound ~n ~diam in
  let errors =
    List.filter_map Fun.id
      [
        (if diam <> 2 * (ctx.side - 1) then
           Some (Printf.sprintf "mst: eccentricity of corner 0 is %d, want %d" diam (2 * (ctx.side - 1)))
         else None);
        (if not (Mst.same_edge_set o.mst kruskal) then
           Some "mst: edge-id set differs from Mst.kruskal"
         else None);
        (if rounds > bound then
           Some (Printf.sprintf "mst: %d rounds exceed Fast_mst.round_bound = %d" rounds bound)
         else None);
      ]
  in
  let failed = if errors = [] then 0 else 1 in
  {
    Wl.attempted = 1;
    failed;
    answered = 1 - failed;
    errors;
    exact =
      [
        ("rounds", rounds);
        ("messages", o.bfs_messages + o.pipeline_messages);
        ("latency_p50_rounds", rounds);
        ("latency_p99_rounds", rounds);
        ("bfs_tree.messages", o.bfs_messages);
        ("pipeline.messages", o.pipeline_messages);
      ]
      @ List.map (fun (s, r) -> ("fast_mst.rounds." ^ s, r)) o.stages;
  }

(* Swap one MST edge for a non-tree edge. *)
let tamper ctx o =
  let ids = List.map (fun (e : Graph.edge) -> e.id) o.mst in
  let outside = Array.to_list (Graph.edges ctx.g) |> List.find (fun (e : Graph.edge) -> not (List.mem e.id ids)) in
  { o with mst = outside :: List.tl o.mst }

let inputs ctx =
  let _, diam = truth ctx in
  [ ("n", Graph.n ctx.g); ("m", Graph.m ctx.g); ("diam", diam) ]

let probe sp ctx =
  let k = isqrt_ceil (Graph.n ctx.g) in
  ignore (Span.with_ sp "simple_mst.run" (fun () -> Simple_mst.run ctx.g ~k))

let layers sp =
  let fastdom_g = Wl.warm_median sp "fastdom_g.run" in
  let simple_mst = Wl.span_median sp "simple_mst.run" in
  let per_msg span key = Wl.ratio (Wl.minor_median sp span) (Wl.exact_of sp key) in
  [
    ("graph.generate_s", Wl.span_median sp "graph.generate");
    ("graph.minor_words", Wl.minor_median sp "graph.generate");
    ("bfs_tree.run_s", Wl.warm_median sp "bfs_tree.run");
    ("bfs_tree.minor_words_per_msg", per_msg "bfs_tree.run" "bfs_tree.messages");
    ("simple_mst.run_s", simple_mst);
    ("fastdom_g.run_s", fastdom_g);
    ("fastdom_t.self_s", fastdom_g -. simple_mst);
    ("pipeline.run_s", Wl.warm_median sp "pipeline.run");
    ("pipeline.minor_words_per_msg", per_msg "pipeline.run" "pipeline.messages");
  ]
  @ List.map
      (fun (_, s) ->
        let key = "fast_mst.rounds." ^ s in
        (key, Wl.exact_of sp key))
      stage_names
