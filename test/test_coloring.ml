(* Tests for O(log* n) symmetry breaking: Cole–Vishkin coloring, MIS and
   maximal matching on rooted trees, plus the message-level CONGEST run. *)

open Kdom_graph
open Kdom

let rng () = Rng.create 0xBEEF

let proper_coloring (t : Tree.t) colors =
  List.for_all
    (fun v -> t.parent.(v) = -1 || colors.(v) <> colors.(t.parent.(v)))
    (Tree.nodes t)

let tree_families seed =
  let r = Rng.create seed in
  [
    ("path64", Generators.path ~rng:r 64);
    ("star33", Generators.star ~rng:r 33);
    ("binary127", Generators.binary_tree ~rng:r 127);
    ("caterpillar", Generators.caterpillar ~rng:r ~spine:10 ~legs:4);
    ("random200", Generators.random_tree ~rng:r 200);
    ("random2", Generators.random_tree ~rng:r 2);
    ("single", Generators.path ~rng:r 1);
  ]

let test_cv_iterations () =
  Alcotest.(check int) "palette 6 needs none" 0 (Coloring.cv_iterations 6);
  Alcotest.(check bool) "n=2^16 small" true (Coloring.cv_iterations 65536 <= 5);
  Alcotest.(check bool) "monotone-ish" true
    (Coloring.cv_iterations 1_000_000 >= Coloring.cv_iterations 10)

let test_six_color () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let r = Coloring.six_color t in
      Alcotest.(check bool) (name ^ " proper") true (proper_coloring t r.colors);
      List.iter
        (fun v ->
          Alcotest.(check bool) (name ^ " palette") true
            (r.colors.(v) >= 0 && r.colors.(v) < 6))
        (Tree.nodes t))
    (tree_families 1)

let test_three_color () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let r = Coloring.three_color t in
      Alcotest.(check bool) (name ^ " proper") true (proper_coloring t r.colors);
      List.iter
        (fun v ->
          Alcotest.(check bool) (name ^ " palette 3") true
            (r.colors.(v) >= 0 && r.colors.(v) < 3))
        (Tree.nodes t))
    (tree_families 2)

let test_three_color_rounds_logstar () =
  (* The round count must grow like log* n: tiny even for big trees. *)
  let g = Generators.random_tree ~rng:(rng ()) 20_000 in
  let t = Tree.root_at g 0 in
  let r = Coloring.three_color t in
  Alcotest.(check bool) "rounds small" true (r.rounds <= 12)

let check_mis g =
  let t = Tree.root_at g 0 in
  let in_mis, _rounds = Coloring.mis t in
  (* independence *)
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "independent" false (in_mis.(e.u) && in_mis.(e.v)))
    (Graph.edges g);
  (* maximality: every node out of the set has a neighbor in it *)
  List.iter
    (fun v ->
      if not in_mis.(v) then
        Alcotest.(check bool) "dominated" true
          (Graph.fold_neighbors g v (fun u _ acc -> acc || in_mis.(u)) false))
    (Tree.nodes t)

let test_mis () = List.iter (fun (_, g) -> check_mis g) (tree_families 3)

let check_matching g =
  let t = Tree.root_at g 0 in
  let mate, _rounds = Coloring.maximal_matching t in
  (* consistency: mates are mutual and adjacent *)
  Array.iteri
    (fun v m ->
      if m <> -1 then begin
        Alcotest.(check int) "mutual" v mate.(m);
        Alcotest.(check bool) "adjacent" true (Option.is_some (Graph.find_edge g v m))
      end)
    mate;
  (* maximality: no edge with both endpoints unmatched *)
  Array.iter
    (fun (e : Graph.edge) ->
      Alcotest.(check bool) "maximal" false (mate.(e.u) = -1 && mate.(e.v) = -1))
    (Graph.edges g)

let test_matching () =
  List.iter (fun (_, g) -> if Graph.n g >= 2 then check_matching g) (tree_families 4)

let test_congest_matches_pure () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let pure = Coloring.three_color t in
      let colors, stats = Coloring.three_color_congest g ~root:0 in
      Alcotest.(check (array int)) (name ^ " same colors") pure.colors colors;
      Alcotest.(check bool)
        (name ^ " round counts compatible")
        true
        (abs (stats.rounds - pure.rounds) <= 2))
    (tree_families 5)

let test_congest_message_bound () =
  let g = Generators.random_tree ~rng:(rng ()) 300 in
  let _colors, stats = Coloring.three_color_congest g ~root:0 in
  (* at most one message per edge per round *)
  Alcotest.(check bool) "congestion respected" true
    (stats.max_inflight <= Graph.m g);
  Alcotest.(check bool) "rounds log*" true (stats.rounds <= 14)

(* qcheck: pure three-coloring is proper and uses <= 3 colors on random trees
   of random sizes, rooted anywhere. *)
let prop_three_color =
  QCheck2.Test.make ~name:"three_color proper on random rooted trees" ~count:120
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 80))
    (fun (seed, n) ->
      let n = n + 1 in
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      let root = seed mod n in
      let t = Tree.root_at g root in
      let r = Coloring.three_color t in
      proper_coloring t r.colors
      && List.for_all (fun v -> r.colors.(v) < 3 && r.colors.(v) >= 0) (Tree.nodes t))

let prop_mis_on_forest_components =
  QCheck2.Test.make ~name:"mis valid when rooted at random node" ~count:80
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 60))
    (fun (seed, n) ->
      let n = n + 2 in
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      let t = Tree.root_at g (seed mod n) in
      let in_mis, _ = Coloring.mis t in
      Array.for_all
        (fun (e : Graph.edge) -> not (in_mis.(e.u) && in_mis.(e.v)))
        (Graph.edges g)
      && List.for_all
           (fun v ->
             in_mis.(v)
             || Graph.fold_neighbors g v (fun u _ acc -> acc || in_mis.(u)) false)
           (Tree.nodes t))

let () =
  Alcotest.run "coloring"
    [
      ( "cole-vishkin",
        [
          Alcotest.test_case "cv_iterations" `Quick test_cv_iterations;
          Alcotest.test_case "six colors" `Quick test_six_color;
          Alcotest.test_case "three colors" `Quick test_three_color;
          Alcotest.test_case "log* rounds" `Quick test_three_color_rounds_logstar;
        ] );
      ( "mis+matching",
        [
          Alcotest.test_case "mis valid" `Quick test_mis;
          Alcotest.test_case "matching valid" `Quick test_matching;
        ] );
      ( "congest",
        [
          Alcotest.test_case "matches pure computation" `Quick test_congest_matches_pure;
          Alcotest.test_case "message bounds" `Quick test_congest_message_bound;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_three_color; prop_mis_on_forest_components ] );
    ]
