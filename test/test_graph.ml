(* Tests for the graph substrate: Graph, Union_find, Traversal, Tree, Mst,
   Generators, Domination. *)

open Kdom_graph

let rng () = Rng.create 0xC0FFEE

(* ------------------------------------------------------------------ *)
(* Graph *)

let test_graph_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (2, 3, 7); (0, 3, 9) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check int) "degree 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "total weight" 24 (Graph.total_weight g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  Alcotest.(check bool) "distinct weights" true (Graph.has_distinct_weights g)

let test_graph_find_edge () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 1); (1, 2, 2); (3, 4, 3) ] in
  (match Graph.find_edge g 2 1 with
  | Some e -> Alcotest.(check int) "weight" 2 e.w
  | None -> Alcotest.fail "edge 1-2 not found");
  Alcotest.(check bool) "absent edge" true (Graph.find_edge g 0 4 = None);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_graph_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edge_array: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (1, 1, 5) ]))

let test_graph_rejects_duplicate () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.of_edge_array: duplicate edge")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 1, 5); (1, 0, 2) ]))

let test_graph_column_lengths () =
  Alcotest.check_raises "short weight column"
    (Invalid_argument "Graph.of_columns: column lengths differ") (fun () ->
      ignore (Graph.of_columns ~n:3 [| 0; 1 |] [| 1; 2 |] [| 5 |]));
  let g = Graph.of_columns ~n:3 [| 1; 1 |] [| 0; 2 |] [| 5; 3 |] in
  Alcotest.(check (array int)) "lo" [| 0; 1 |] (Graph.lo g);
  Alcotest.(check (array int)) "hi" [| 1; 2 |] (Graph.hi g);
  Alcotest.(check (array int)) "weights" [| 5; 3 |] (Graph.weights g)

let test_graph_other_endpoint () =
  let g = Graph.of_edges ~n:2 [ (0, 1, 1) ] in
  let e = Graph.edge g 0 in
  Alcotest.(check int) "other of 0" 1 (Graph.other_endpoint e 0);
  Alcotest.(check int) "other of 1" 0 (Graph.other_endpoint e 1)

let test_subgraph () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (2, 3, 7) ] in
  let sub = Graph.subgraph_of_edges g [ Graph.edge g 0; Graph.edge g 2 ] in
  Alcotest.(check int) "n preserved" 4 (Graph.n sub);
  Alcotest.(check int) "m" 2 (Graph.m sub)

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial count" 6 (Union_find.count uf);
  Alcotest.(check bool) "union 0 1" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "union 1 0 again" false (Union_find.union uf 1 0);
  Alcotest.(check bool) "same 0 1" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "not same 0 2" false (Union_find.same uf 0 2);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  Alcotest.(check bool) "transitively same" true (Union_find.same uf 1 2);
  Alcotest.(check int) "count" 3 (Union_find.count uf)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let path5 () = Generators.path ~rng:(rng ()) 5

let test_bfs_path () =
  let g = path5 () in
  let b = Traversal.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] b.dist;
  Alcotest.(check int) "parent of 3" 2 b.parent.(3);
  Alcotest.(check int) "parent of source" (-1) b.parent.(0)

let test_bfs_multi () =
  let g = path5 () in
  let b = Traversal.bfs_multi g [ 0; 4 ] in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 1; 0 |] b.dist

let test_diameter () =
  let g = path5 () in
  Alcotest.(check int) "path diameter" 4 (Traversal.diameter g);
  let r = rng () in
  let star = Generators.star ~rng:r 10 in
  Alcotest.(check int) "star diameter" 2 (Traversal.diameter star);
  let rad, center = Traversal.radius_and_center star in
  Alcotest.(check int) "star radius" 1 rad;
  Alcotest.(check int) "star center" 0 center

let test_components () =
  let g = Graph.of_edges ~n:5 [ (0, 1, 1); (3, 4, 2) ] in
  let label, count = Traversal.components g in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check bool) "0 and 1 together" true (label.(0) = label.(1));
  Alcotest.(check bool) "0 and 3 apart" true (label.(0) <> label.(3))

(* ------------------------------------------------------------------ *)
(* Tree *)

let test_tree_rooting () =
  let g = Generators.binary_tree ~rng:(rng ()) 7 in
  let t = Tree.root_at g 0 in
  Alcotest.(check int) "root depth" 0 t.depth.(0);
  Alcotest.(check int) "leaf depth" 2 t.depth.(6);
  Alcotest.(check int) "height" 2 t.height;
  Alcotest.(check int) "size" 7 (Tree.size t);
  Alcotest.(check int) "children of root" 2 (Array.length t.children.(0));
  let sizes = Tree.subtree_sizes t in
  Alcotest.(check int) "root subtree" 7 sizes.(0);
  Alcotest.(check int) "internal subtree" 3 sizes.(1);
  Alcotest.(check (list int)) "path to root" [ 6; 2; 0 ] (Tree.path_to_root t 6)

let test_tree_not_tree () =
  let g = Generators.cycle ~rng:(rng ()) 4 in
  Alcotest.(check bool) "cycle not tree" false (Tree.is_tree g);
  Alcotest.(check bool) "cycle not forest" false (Tree.is_forest g)

let test_forest_component () =
  let g = Graph.of_edges ~n:6 [ (0, 1, 1); (1, 2, 2); (3, 4, 3) ] in
  Alcotest.(check bool) "is forest" true (Tree.is_forest g);
  let t = Tree.root_component_at g 1 in
  Alcotest.(check int) "component size" 3 (Tree.size t);
  Alcotest.(check int) "outside depth" (-1) t.depth.(3);
  Alcotest.(check (list int)) "component nodes" [ 0; 1; 2 ]
    (List.sort compare (Tree.nodes t))

let test_bottom_up () =
  let g = Generators.path ~rng:(rng ()) 4 in
  let t = Tree.root_at g 0 in
  Alcotest.(check (array int)) "bottom-up order" [| 3; 2; 1; 0 |] (Tree.bottom_up t)

(* ------------------------------------------------------------------ *)
(* Mst *)

let test_mst_known () =
  let g =
    Graph.of_edges ~n:4 [ (0, 1, 1); (1, 2, 2); (2, 3, 3); (3, 0, 4); (0, 2, 5) ]
  in
  let mst = Mst.kruskal g in
  Alcotest.(check int) "weight" 6 (Mst.weight mst);
  Alcotest.(check bool) "spanning tree" true (Mst.is_spanning_tree g mst);
  Alcotest.(check bool) "is mst" true (Mst.is_mst g mst)

let test_mst_algorithms_agree () =
  let r = rng () in
  for _trial = 1 to 20 do
    let g = Generators.gnp_connected ~rng:r ~n:40 ~p:0.1 in
    let k = Mst.kruskal g in
    let p = Mst.prim g in
    let b = Mst.boruvka g in
    Alcotest.(check bool) "kruskal = prim" true (Mst.same_edge_set k p);
    Alcotest.(check bool) "kruskal = boruvka" true (Mst.same_edge_set k b)
  done

let test_mst_multigraph () =
  (* Parallel edges between fragments: 0-1 twice with different weights. *)
  let labels =
    Mst.mst_of_multigraph ~n:3
      [ (0, 1, 10, "heavy"); (0, 1, 1, "light"); (1, 2, 5, "only"); (0, 0, 0, "loop") ]
  in
  Alcotest.(check (list string)) "choices" [ "light"; "only" ] (List.sort compare labels)

let test_not_spanning () =
  let g = Graph.of_edges ~n:3 [ (0, 1, 1); (1, 2, 2); (0, 2, 3) ] in
  Alcotest.(check bool) "two edges needed" false
    (Mst.is_spanning_tree g [ Graph.edge g 0 ])

(* ------------------------------------------------------------------ *)
(* Generators *)

let check_tree name g expected_n =
  Alcotest.(check int) (name ^ " size") expected_n (Graph.n g);
  Alcotest.(check bool) (name ^ " is tree") true (Tree.is_tree g);
  Alcotest.(check bool) (name ^ " distinct weights") true (Graph.has_distinct_weights g)

let test_tree_generators () =
  let r = rng () in
  check_tree "path" (Generators.path ~rng:r 17) 17;
  check_tree "star" (Generators.star ~rng:r 9) 9;
  check_tree "binary" (Generators.binary_tree ~rng:r 20) 20;
  check_tree "caterpillar" (Generators.caterpillar ~rng:r ~spine:5 ~legs:3) 20;
  check_tree "broom" (Generators.broom ~rng:r ~handle:6 ~bristles:4) 10;
  check_tree "random" (Generators.random_tree ~rng:r 50) 50;
  check_tree "attachment" (Generators.random_attachment_tree ~rng:r 50) 50

let test_random_tree_distribution () =
  (* Prüfer decoding must produce varied shapes: collect leaf counts. *)
  let r = rng () in
  let leafs g =
    let count = ref 0 in
    for v = 0 to Graph.n g - 1 do
      if Graph.degree g v = 1 then incr count
    done;
    !count
  in
  let samples = List.init 30 (fun _ -> leafs (Generators.random_tree ~rng:r 30)) in
  let distinct = List.sort_uniq compare samples in
  Alcotest.(check bool) "varied leaf counts" true (List.length distinct > 3)

let test_graph_generators () =
  let r = rng () in
  let check name g n =
    Alcotest.(check int) (name ^ " n") n (Graph.n g);
    Alcotest.(check bool) (name ^ " connected") true (Graph.is_connected g);
    Alcotest.(check bool) (name ^ " distinct w") true (Graph.has_distinct_weights g)
  in
  check "cycle" (Generators.cycle ~rng:r 8) 8;
  check "complete" (Generators.complete ~rng:r 7) 7;
  check "grid" (Generators.grid ~rng:r ~rows:4 ~cols:5) 20;
  check "torus" (Generators.torus ~rng:r ~rows:4 ~cols:4) 16;
  check "gnp" (Generators.gnp_connected ~rng:r ~n:40 ~p:0.05) 40;
  check "lollipop" (Generators.lollipop ~rng:r ~clique:6 ~tail:5) 11;
  check "barbell" (Generators.barbell ~rng:r ~clique:5 ~bridge:3) 13;
  check "ladder" (Generators.ladder ~rng:r 7) 14;
  check "regular" (Generators.random_regular ~rng:r ~n:20 ~d:4) 20;
  check "geometric" (Generators.random_geometric ~rng:r ~n:60 ~radius:0.2) 60

let test_ladder_validates () =
  Alcotest.check_raises "empty ladder" (Invalid_argument "Generators.ladder") (fun () ->
      ignore (Generators.ladder ~rng:(rng ()) 0));
  Alcotest.(check int) "one rung" 1 (Graph.m (Generators.ladder ~rng:(rng ()) 1))

(* A radius far below the point spacing: no geometric edge, so the graph
   is the random skeleton over [n] singletons.  Cell storage follows the
   occupied cells, not [1 / radius^2]. *)
let test_geometric_tiny_radius () =
  List.iter
    (fun radius ->
      let g = Generators.random_geometric ~rng:(Rng.create 1) ~n:10 ~radius in
      Alcotest.(check int) "n" 10 (Graph.n g);
      Alcotest.(check int) "a spanning path" 9 (Graph.m g);
      Alcotest.(check bool) "connected" true (Graph.is_connected g))
    [ 1e-6; 1e-300; Float.min_float ]

let test_grid_diameter () =
  let g = Generators.grid ~rng:(rng ()) ~rows:3 ~cols:7 in
  Alcotest.(check int) "grid diameter" 8 (Traversal.diameter g)

let test_lollipop_shape () =
  let g = Generators.lollipop ~rng:(rng ()) ~clique:10 ~tail:15 in
  Alcotest.(check int) "diameter = tail + 1" 16 (Traversal.diameter g)

let test_regular_degrees () =
  let g = Generators.random_regular ~rng:(rng ()) ~n:30 ~d:4 in
  for v = 0 to 29 do
    Alcotest.(check int) "degree" 4 (Graph.degree g v)
  done

let test_hidden_path () =
  let r = rng () in
  List.iter
    (fun n ->
      let g = Generators.hidden_path ~rng:r ~n ~shortcuts:(2 * n) in
      Alcotest.(check bool) "connected" true (Graph.is_connected g);
      Alcotest.(check bool) "distinct weights" true (Graph.has_distinct_weights g);
      (* the MST is exactly the n-1 lightest edges = the hidden path *)
      let mst = Mst.kruskal g in
      Alcotest.(check int) "mst size" (n - 1) (List.length mst);
      List.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check bool) "light edge" true (e.w <= n - 1))
        mst;
      (* the MST is a Hamiltonian path: every node has degree <= 2 in it *)
      let deg = Array.make n 0 in
      List.iter
        (fun (e : Graph.edge) ->
          deg.(e.u) <- deg.(e.u) + 1;
          deg.(e.v) <- deg.(e.v) + 1)
        mst;
      Array.iter (fun d -> Alcotest.(check bool) "path degree" true (d <= 2)) deg;
      (* shortcuts crush the diameter *)
      Alcotest.(check bool) "small diameter" true
        (Traversal.diameter g <= 4 * Kdom.Log_star.log2 n))
    [ 64; 256; 1024 ]

let test_reweight_preserves_topology () =
  let r = rng () in
  let g = Generators.grid ~rng:r ~rows:3 ~cols:3 in
  let g' = Generators.reweight ~rng:r g in
  Alcotest.(check int) "same m" (Graph.m g) (Graph.m g');
  Array.iteri
    (fun i (e : Graph.edge) ->
      let e' = Graph.edge g' i in
      Alcotest.(check (pair int int)) "same endpoints" (e.u, e.v) (e'.u, e'.v))
    (Graph.edges g)

let test_determinism () =
  let g1 = Generators.random_tree ~rng:(Rng.create 42) 30 in
  let g2 = Generators.random_tree ~rng:(Rng.create 42) 30 in
  Alcotest.(check bool) "same edges" true
    (Array.for_all2
       (fun (a : Graph.edge) (b : Graph.edge) -> a.u = b.u && a.v = b.v && a.w = b.w)
       (Graph.edges g1) (Graph.edges g2))

(* Every generator's output, pinned: [n], each edge's (id, u, v, w) and the
   three CSR columns, digested for two seeds at a small and a medium size.
   A change to how graphs are built must leave these digests unchanged, so
   no weight, golden trace or exact count can move with it. *)

let graph_digest_string g =
  let b = Buffer.create 4096 in
  let add x =
    Buffer.add_string b (string_of_int x);
    Buffer.add_char b ' '
  in
  add (Graph.n g);
  Array.iter (fun (e : Graph.edge) -> add e.id; add e.u; add e.v; add e.w) (Graph.edges g);
  Buffer.add_char b '|';
  Array.iter add (Graph.offsets g);
  Buffer.add_char b '|';
  Array.iter add (Graph.targets g);
  Buffer.add_char b '|';
  Array.iter add (Graph.edge_ids g);
  Buffer.contents b

let generator_cases : (string * (Rng.t -> medium:bool -> string)) list =
  let g f rng ~medium = graph_digest_string (f rng medium) in
  let pick medium small big = if medium then big else small in
  [
    ("path", g (fun rng m -> Generators.path ~rng (pick m 10 1000)));
    ("star", g (fun rng m -> Generators.star ~rng (pick m 10 1000)));
    ("binary_tree", g (fun rng m -> Generators.binary_tree ~rng (pick m 10 1000)));
    ( "caterpillar",
      g (fun rng m -> Generators.caterpillar ~rng ~spine:(pick m 4 40) ~legs:(pick m 2 20)) );
    ( "broom",
      g (fun rng m -> Generators.broom ~rng ~handle:(pick m 5 300) ~bristles:(pick m 5 700)) );
    ("random_tree", g (fun rng m -> Generators.random_tree ~rng (pick m 10 1000)));
    ( "random_attachment_tree",
      g (fun rng m -> Generators.random_attachment_tree ~rng (pick m 10 1000)) );
    ("cycle", g (fun rng m -> Generators.cycle ~rng (pick m 10 1000)));
    ("complete", g (fun rng m -> Generators.complete ~rng (pick m 6 40)));
    ("grid", g (fun rng m -> Generators.grid ~rng ~rows:(pick m 3 30) ~cols:(pick m 4 40)));
    ("torus", g (fun rng m -> Generators.torus ~rng ~rows:(pick m 3 30) ~cols:(pick m 4 40)));
    ("ladder", g (fun rng m -> Generators.ladder ~rng (pick m 5 500)));
    ( "gnp_connected",
      g (fun rng m ->
          Generators.gnp_connected ~rng ~n:(pick m 12 300) ~p:(pick m 0.2 0.01)) );
    ( "lollipop",
      g (fun rng m -> Generators.lollipop ~rng ~clique:(pick m 5 30) ~tail:(pick m 4 200)) );
    ( "barbell",
      g (fun rng m -> Generators.barbell ~rng ~clique:(pick m 4 25) ~bridge:(pick m 3 100)) );
    ( "random_regular",
      g (fun rng m -> Generators.random_regular ~rng ~n:(pick m 10 400) ~d:(pick m 3 4)) );
    ( "hidden_path",
      g (fun rng m ->
          Generators.hidden_path ~rng ~n:(pick m 10 1000) ~shortcuts:(pick m 5 1000)) );
    ( "preferential_attachment",
      g (fun rng m -> Generators.preferential_attachment ~rng ~n:(pick m 10 1000) ~m:(pick m 2 3))
    );
    ( "random_geometric",
      g (fun rng m ->
          Generators.random_geometric ~rng ~n:(pick m 20 2000) ~radius:(pick m 0.3 0.04)) );
    (* sparse enough that the straggler skeleton does most of the work *)
    ( "random_geometric sparse",
      g (fun rng m ->
          Generators.random_geometric ~rng ~n:(pick m 20 500) ~radius:(pick m 0.05 0.01)) );
    ( "reweight",
      g (fun rng m ->
          Generators.reweight ~rng
            (Generators.grid ~rng ~rows:(pick m 3 30) ~cols:(pick m 4 40))) );
    ( "shard_partition",
      fun rng ~medium ->
        let g =
          Generators.preferential_attachment ~rng ~n:(pick medium 10 1000) ~m:(pick medium 2 3)
        in
        String.concat " "
          (List.map
             (fun shards ->
               String.concat ","
                 (Array.to_list
                    (Array.map string_of_int (Generators.shard_partition g ~shards))))
             [ 1; 3; 8 ]) );
  ]

let generator_digest f =
  Digest.to_hex
    (Digest.string
       (String.concat "/"
          (List.concat_map
             (fun seed -> List.map (fun medium -> f (Rng.create seed) ~medium) [ false; true ])
             [ 1; 9973 ])))

let pinned_generator_digests =
  [
    ("path", "16ee36c4e49ea04596b46377f8260a3c");
    ("star", "cb2cd92aa50c4ba5aa567ac709c7d956");
    ("binary_tree", "fe71e5739580e44d88020c1959bf4bef");
    ("caterpillar", "1ca3115566cf9c76f7af19d39523d5b1");
    ("broom", "965607d27952b79a838166763474eaf6");
    ("random_tree", "3265c72f6de312130b17036c9114f5a5");
    ("random_attachment_tree", "64953e038384adfd97bb79106ed03781");
    ("cycle", "547eb98e02b1027252c53f166ead3cad");
    ("complete", "7659e4ccb2437771a1cdf29368638336");
    ("grid", "6e18d17a39bcba297685edaea3273d8d");
    ("torus", "a6def4cf277df25d070781ba017b735c");
    ("ladder", "b7bbb4e8833362c7eb2178a29069b907");
    ("gnp_connected", "b23dcf1cd34f9608bedaf9fee51d90f7");
    ("lollipop", "e7a1afb3073ba4056cc13910fcccd6c2");
    ("barbell", "99013c768145c6972ed45d468c4954aa");
    ("random_regular", "4c8d8f111623e61835f640b458a5fc64");
    ("hidden_path", "4fc8a57b0b7d377d7d2555202c1b02c0");
    ("preferential_attachment", "1fe7ae29b548c68d9921613d78e6e646");
    ("random_geometric", "9135fac2bf4d44825aecdbf273cbdc30");
    ("random_geometric sparse", "93046ba58db65ea5f261bcff864b91c1");
    ("reweight", "e5554bed37d9d1f34b78b2ef22c6823a");
    ("shard_partition", "63b23a93debab7ab9032d71d694f6fda");
  ]

(* Every generator is digested before the check, so one failure lists all
   the generators that moved. *)
let test_generator_digests () =
  let moved =
    List.filter_map
      (fun (name, f) ->
        let got = generator_digest f in
        if List.assoc_opt name pinned_generator_digests = Some got then None
        else Some (Printf.sprintf "(%S, %S)" name got))
      generator_cases
  in
  Alcotest.(check (list string)) "generators whose output moved" [] moved

(* ------------------------------------------------------------------ *)
(* Domination *)

let test_size_bound () =
  Alcotest.(check int) "n=10 k=2" 3 (Domination.size_bound ~n:10 ~k:2);
  Alcotest.(check int) "n=3 k=5" 1 (Domination.size_bound ~n:3 ~k:5);
  Alcotest.(check int) "n=12 k=3" 3 (Domination.size_bound ~n:12 ~k:3)

let test_is_k_dominating () =
  let g = path5 () in
  Alcotest.(check bool) "middle 2-dominates" true (Domination.is_k_dominating g ~k:2 [ 2 ]);
  Alcotest.(check bool) "middle not 1-dominating" false
    (Domination.is_k_dominating g ~k:1 [ 2 ]);
  Alcotest.(check bool) "two cover with k=1" true
    (Domination.is_k_dominating g ~k:1 [ 1; 3 ]);
  Alcotest.(check bool) "empty set fails" false (Domination.is_k_dominating g ~k:4 [])

let test_coverage_radius () =
  let g = path5 () in
  Alcotest.(check int) "radius of {0}" 4 (Domination.coverage_radius g [ 0 ]);
  Alcotest.(check int) "radius of {2}" 2 (Domination.coverage_radius g [ 2 ])

let test_dominator_assignment () =
  let g = path5 () in
  let owner = Domination.dominator_assignment g [ 0; 4 ] in
  Alcotest.(check int) "node 1 -> 0" 0 owner.(1);
  Alcotest.(check int) "node 3 -> 4" 4 owner.(3);
  Alcotest.(check int) "node 0 -> itself" 0 owner.(0)

let test_bfs_levels_bound () =
  let r = rng () in
  List.iter
    (fun (g, name) ->
      List.iter
        (fun k ->
          let d = Domination.bfs_levels g ~root:0 ~k in
          let n = Graph.n g in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d dominates" name k)
            true
            (Domination.is_k_dominating g ~k d);
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d small" name k)
            true
            (List.length d <= Domination.size_bound_ceil ~n ~k))
        [ 1; 2; 3; 5 ])
    [
      (Generators.path ~rng:r 30, "path30");
      (Generators.random_tree ~rng:r 64, "rt64");
      (Generators.star ~rng:r 20, "star20");
      (Generators.gnp_connected ~rng:r ~n:50 ~p:0.08, "gnp50");
    ]

let test_bfs_levels_shallow () =
  let g = Generators.star ~rng:(rng ()) 12 in
  Alcotest.(check (list int)) "root alone when k >= depth" [ 0 ]
    (Domination.bfs_levels g ~root:0 ~k:2)

(* Regression: the tree showing that the paper's Lemma 2.1 level classes are
   not k-dominating without adding the root.  Root 0 with a pendant leaf u=1
   at depth 1, a deep branch 2..11 (depths 1..10), and a short branch
   12..14 (depths 1..3).  For k=4 the smallest depth class mod 5 is class 4
   = {depth 4, depth 9} — both on the deep branch, at distance > 4 from u. *)
let lemma_gap_tree () =
  let deep = List.init 10 (fun i -> ((if i = 0 then 0 else i + 1), i + 2, 20 + i)) in
  let short = [ (0, 12, 40); (12, 13, 41); (13, 14, 42) ] in
  Graph.of_edges ~n:15 (((0, 1, 10) :: deep) @ short)

let test_lemma_gap () =
  let g = lemma_gap_tree () in
  let k = 4 in
  let b = Traversal.bfs g 0 in
  (* the raw class-4 level set, without the root *)
  let raw = List.filter (fun v -> b.dist.(v) mod (k + 1) = 4) (List.init 15 Fun.id) in
  Alcotest.(check int) "raw class is the smallest" 2 (List.length raw);
  Alcotest.(check bool) "raw class does NOT k-dominate" false
    (Domination.is_k_dominating g ~k raw);
  (* the repaired construction does *)
  let d = Domination.bfs_levels g ~root:0 ~k in
  Alcotest.(check bool) "repaired set k-dominates" true
    (Domination.is_k_dominating g ~k d);
  Alcotest.(check bool) "repaired set small" true
    (List.length d <= Domination.size_bound_ceil ~n:15 ~k)

let test_deepest_first () =
  let r = rng () in
  List.iter
    (fun (g, name) ->
      List.iter
        (fun k ->
          let d = Domination.deepest_first g ~root:0 ~k in
          let n = Graph.n g in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d dominates" name k)
            true
            (Domination.is_k_dominating g ~k d);
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d small" name k)
            true
            (List.length d <= Domination.size_bound_ceil ~n ~k))
        [ 1; 2; 4 ])
    [
      (Generators.path ~rng:r 30, "path30");
      (Generators.random_tree ~rng:r 64, "rt64");
      (lemma_gap_tree (), "gap-tree");
      (Generators.gnp_connected ~rng:r ~n:50 ~p:0.08, "gnp50");
    ]

let test_greedy_quality () =
  let g = Generators.path ~rng:(rng ()) 21 in
  let d = Domination.greedy g ~k:2 in
  Alcotest.(check bool) "greedy dominates" true (Domination.is_k_dominating g ~k:2 d);
  (* Optimum on a path of 21 with k=2 is ceil(21/5) = 5. *)
  Alcotest.(check bool) "greedy near-optimal" true (List.length d <= 6)

let test_brute_force () =
  let g = Generators.path ~rng:(rng ()) 9 in
  let opt = Domination.brute_force_optimum g ~k:1 in
  Alcotest.(check int) "path9 k=1 optimum" 3 (List.length opt);
  Alcotest.(check bool) "dominates" true (Domination.is_k_dominating g ~k:1 opt)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let tree_gen =
  QCheck2.Gen.(
    map2
      (fun seed n -> Generators.random_tree ~rng:(Rng.create seed) (2 + n))
      (int_bound 10_000) (int_bound 60))

let graph_gen =
  QCheck2.Gen.(
    map2
      (fun seed n -> Generators.gnp_connected ~rng:(Rng.create seed) ~n:(2 + n) ~p:0.1)
      (int_bound 10_000) (int_bound 40))

let prop_bfs_levels =
  QCheck2.Test.make ~name:"bfs_levels is small and k-dominating" ~count:100
    QCheck2.Gen.(pair tree_gen (int_range 1 6))
    (fun (g, k) ->
      let d = Domination.bfs_levels g ~root:0 ~k in
      Domination.is_k_dominating g ~k d
      && List.length d <= Domination.size_bound_ceil ~n:(Graph.n g) ~k)

let prop_mst_agree =
  QCheck2.Test.make ~name:"prim/boruvka match kruskal" ~count:60 graph_gen (fun g ->
      let k = Mst.kruskal g in
      Mst.same_edge_set k (Mst.prim g) && Mst.same_edge_set k (Mst.boruvka g))

let prop_tree_rooting =
  QCheck2.Test.make ~name:"depths consistent with parents" ~count:100 tree_gen (fun g ->
      let t = Tree.root_at g 0 in
      List.for_all
        (fun v -> v = 0 || t.depth.(v) = t.depth.(t.parent.(v)) + 1)
        (Tree.nodes t))

let prop_diameter_vs_ecc =
  QCheck2.Test.make ~name:"diameter >= any eccentricity" ~count:40 graph_gen (fun g ->
      let d = Traversal.diameter g in
      d >= Traversal.eccentricity g 0 && d >= Traversal.eccentricity g (Graph.n g - 1))

(* Skewed-degree families for the shard balance property: stars and brooms
   concentrate weight on a few hubs, gnp adds an irregular middle — the
   regime where a contiguous split fails and LPT must earn its bound. *)
let skewed_gen =
  QCheck2.Gen.(
    map2
      (fun seed which ->
        let rng = Rng.create seed in
        match which mod 3 with
        | 0 -> Generators.star ~rng (3 + (seed mod 60))
        | 1 ->
            Generators.broom ~rng
              ~handle:(2 + (seed mod 10))
              ~bristles:(1 + (seed mod 40))
        | _ ->
            Generators.gnp_connected ~rng ~n:(3 + (seed mod 50)) ~p:0.2)
      (int_bound 10_000) (int_bound 2))

let prop_shard_balance =
  QCheck2.Test.make ~name:"shard_partition within 2x of ideal load" ~count:100
    QCheck2.Gen.(pair skewed_gen (int_range 1 6))
    (fun (g, shards) ->
      let part = Generators.shard_partition g ~shards in
      let n = Graph.n g in
      Array.length part = n
      && Array.for_all (fun s -> s >= 0 && s < shards) part
      &&
      let loads = Array.make shards 0 in
      let total = ref 0 in
      for v = 0 to n - 1 do
        let w = Graph.degree g v + 1 in
        loads.(part.(v)) <- loads.(part.(v)) + w;
        total := !total + w
      done;
      let max_load = Array.fold_left max 0 loads in
      let max_item =
        let m = ref 0 in
        for v = 0 to n - 1 do
          m := max !m (Graph.degree g v + 1)
        done;
        !m
      in
      (* lower bound on any assignment's heaviest shard *)
      let ideal = max ((!total + shards - 1) / shards) max_item in
      max_load <= 2 * ideal)

(* The counting-sort CSR builder against a naive reference: a random simple
   graph (n = 0, m = 0 and isolated nodes included) fed in shuffled edge
   order with randomly flipped endpoints.  Every node's (neighbour, edge
   id) sequence must equal the sorted reference, the edge array must keep
   input ids, and one injected fault must raise the exact message. *)
let simple_graph_gen =
  QCheck2.Gen.(
    map3
      (fun seed n density ->
        let rng = Rng.create seed in
        let pairs = ref [] in
        for a = 0 to n - 1 do
          for b = a + 1 to n - 1 do
            if Rng.int rng 100 < density then pairs := (a, b) :: !pairs
          done
        done;
        let arr = Array.of_list !pairs in
        Rng.shuffle rng arr;
        let arr =
          Array.mapi
            (fun i (a, b) -> if Rng.bool rng then (b, a, i + 1) else (a, b, i + 1))
            arr
        in
        (seed, n, arr))
      (int_bound 1_000_000) (int_bound 24) (int_bound 60))

let print_simple_graph (seed, n, arr) =
  Printf.sprintf "seed=%d n=%d edges=[%s]" seed n
    (String.concat "; "
       (Array.to_list (Array.map (fun (a, b, w) -> Printf.sprintf "(%d,%d,%d)" a b w) arr)))

let csr_matches_reference n arr g =
  let reference = Array.make n [] in
  Array.iteri
    (fun id (a, b, _) ->
      reference.(a) <- (b, id) :: reference.(a);
      reference.(b) <- (a, id) :: reference.(b))
    arr;
  let off = Graph.offsets g in
  Graph.n g = n
  && Graph.m g = Array.length arr
  && Array.length off = n + 1
  && off.(n) = 2 * Array.length arr
  && Array.length (Graph.targets g) = 2 * Array.length arr
  && Array.for_all2
       (fun (a, b, w) (e : Graph.edge) ->
         e.u = min a b && e.v = max a b && e.w = w)
       arr (Graph.edges g)
  && Array.for_all Fun.id (Array.mapi (fun i (e : Graph.edge) -> e.id = i) (Graph.edges g))
  && List.for_all
       (fun v ->
         let want = List.sort compare reference.(v) in
         let got =
           List.rev (Graph.fold_neighbors g v (fun u id acc -> (u, id) :: acc) [])
         in
         let indexed =
           List.init (Graph.degree g v) (fun i ->
               (Graph.neighbor g v i, (Graph.edge_ids g).(off.(v) + i)))
         in
         got = want && indexed = want
         && List.for_all
              (fun (u, id) ->
                let j = Graph.port g v u in
                (Graph.edge_ids g).(j) = id && (Graph.targets g).(j) = u)
              want)
       (List.init n Fun.id)

let prop_csr_builder =
  QCheck2.Test.make ~name:"of_edge_array CSR = sorted reference" ~count:300
    ~print:print_simple_graph simple_graph_gen (fun (_, n, arr) ->
      csr_matches_reference n arr (Graph.of_edge_array ~n arr))

let prop_csr_rejects =
  QCheck2.Test.make ~name:"of_edge_array rejects one injected fault" ~count:300
    ~print:print_simple_graph simple_graph_gen (fun (seed, n, arr) ->
      let rng = Rng.create (seed + 1) in
      let m = Array.length arr in
      let node () = if n = 0 then 0 else Rng.int rng n in
      let fault, want =
        match Rng.int rng 3 with
        | 0 when m > 0 ->
          let a, b, _ = arr.(Rng.int rng m) in
          let dup = if Rng.bool rng then (a, b, 0) else (b, a, 0) in
          (dup, "Graph.of_edge_array: duplicate edge")
        | 1 ->
          let a = node () in
          let bad = if Rng.bool rng then -1 - Rng.int rng 3 else n + Rng.int rng 3 in
          (* with n = 0 the "in-range" endpoint is itself out of range *)
          let bad = if bad = a then bad + 1 else bad in
          ((if Rng.bool rng then (a, bad, 0) else (bad, a, 0)),
           "Graph.of_edge_array: endpoint out of range")
        | _ ->
          let a = if Rng.bool rng then node () else n + Rng.int rng 3 in
          ((a, a, 0), "Graph.of_edge_array: self-loop")
      in
      let at = Rng.int rng (m + 1) in
      let bad =
        Array.init (m + 1) (fun i ->
            if i < at then arr.(i) else if i = at then fault else arr.(i - 1))
      in
      match Graph.of_edge_array ~n bad with
      | _ -> false
      | exception Invalid_argument msg -> msg = want)

(* The splitmix64 generator as it was first written: state in a mutable
   [int64] field, boxed on every draw, and a textbook Fisher–Yates over its
   [int].  The allocation-free [Rng] must draw exactly this stream. *)
module Boxed_rng = struct
  type t = { mutable state : int64 }

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create seed = { state = mix64 (Int64.of_int seed) }

  let int64 t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    mix64 t.state

  let split t = { state = int64 t }

  let int t bound =
    let bound64 = Int64.of_int bound in
    let mask = Int64.max_int in
    let rec loop () =
      let r = Int64.logand (int64 t) mask in
      let v = Int64.rem r bound64 in
      if Int64.sub r v > Int64.sub (Int64.sub mask bound64) Int64.one then loop ()
      else Int64.to_int v
    in
    loop ()

  let float t bound =
    Int64.to_float (Int64.shift_right_logical (int64 t) 11) /. 9007199254740992.0 *. bound

  let bool t = Int64.logand (int64 t) 1L = 1L

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done
end

(* Bounds near [max_int] make the rejection loop retry often. *)
let bound_gen =
  QCheck2.Gen.(
    oneof
      [
        int_range 1 1000;
        int_range 1 max_int;
        map (fun k -> (max_int / 2) + 1 + k) (int_bound 1000);
        map (fun k -> max_int - k) (int_bound 1000);
      ])

let prop_rng_stream =
  QCheck2.Test.make ~name:"Rng draws the boxed reference stream" ~count:300
    ~print:QCheck2.Print.(quad int int (list int) int)
    QCheck2.Gen.(quad (int_bound 1_000_000_000) (int_bound 300) (list_size (int_bound 20) bound_gen) bound_gen)
    (fun (seed, len, bounds, next) ->
      let r = Rng.create seed and b = Boxed_rng.create seed in
      (* shuffle, then one more draw: the state after the loop must have
         been written back *)
      let ints = Array.init len Fun.id and want = Array.init len Fun.id in
      Rng.shuffle_ints r ints;
      Boxed_rng.shuffle b want;
      let same_ints = ints = want && Rng.int r next = Boxed_rng.int b next in
      let strs = Array.init len string_of_int and want = Array.init len string_of_int in
      Rng.shuffle r strs;
      Boxed_rng.shuffle b want;
      let same_strs = strs = want && Rng.int r next = Boxed_rng.int b next in
      let same_draws =
        List.for_all (fun bound -> Rng.int r bound = Boxed_rng.int b bound) bounds
        && Rng.int64 r = Boxed_rng.int64 b
        && Rng.float r 1.0 = Boxed_rng.float b 1.0
        && Rng.bool r = Boxed_rng.bool b
      in
      let r' = Rng.split r and b' = Boxed_rng.split b in
      same_ints && same_strs && same_draws
      && Rng.int r' next = Boxed_rng.int b' next
      && Rng.int r next = Boxed_rng.int b next)

let test_rng_allocation_free () =
  let r = Rng.create 7 in
  let a = Array.init 10_000 Fun.id in
  let before = Gc.minor_words () in
  Rng.shuffle r a;
  Rng.shuffle_ints r a;
  for bound = 1 to 10_000 do
    ignore (Sys.opaque_identity (Rng.int r bound))
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 30k draws" words)
    true (words < 100.)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bfs_levels;
      prop_mst_agree;
      prop_tree_rooting;
      prop_diameter_vs_ecc;
      prop_shard_balance;
      prop_csr_builder;
      prop_csr_rejects;
      prop_rng_stream;
    ]

let () =
  Alcotest.run "graph substrate"
    [
      ( "graph",
        [
          Alcotest.test_case "basic accessors" `Quick test_graph_basic;
          Alcotest.test_case "find_edge" `Quick test_graph_find_edge;
          Alcotest.test_case "rejects self-loops" `Quick test_graph_rejects_self_loop;
          Alcotest.test_case "rejects duplicates" `Quick test_graph_rejects_duplicate;
          Alcotest.test_case "column constructor" `Quick test_graph_column_lengths;
          Alcotest.test_case "other_endpoint" `Quick test_graph_other_endpoint;
          Alcotest.test_case "subgraph_of_edges" `Quick test_subgraph;
        ] );
      ("union_find", [ Alcotest.test_case "union/find/count" `Quick test_union_find ]);
      ( "traversal",
        [
          Alcotest.test_case "bfs on path" `Quick test_bfs_path;
          Alcotest.test_case "multi-source bfs" `Quick test_bfs_multi;
          Alcotest.test_case "diameter and radius" `Quick test_diameter;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "tree",
        [
          Alcotest.test_case "rooting a binary tree" `Quick test_tree_rooting;
          Alcotest.test_case "cycle is not a tree" `Quick test_tree_not_tree;
          Alcotest.test_case "forest component" `Quick test_forest_component;
          Alcotest.test_case "bottom-up order" `Quick test_bottom_up;
        ] );
      ( "mst",
        [
          Alcotest.test_case "known instance" `Quick test_mst_known;
          Alcotest.test_case "algorithms agree" `Quick test_mst_algorithms_agree;
          Alcotest.test_case "multigraph kruskal" `Quick test_mst_multigraph;
          Alcotest.test_case "non-spanning rejected" `Quick test_not_spanning;
        ] );
      ( "generators",
        [
          Alcotest.test_case "tree families" `Quick test_tree_generators;
          Alcotest.test_case "random tree variety" `Quick test_random_tree_distribution;
          Alcotest.test_case "graph families" `Quick test_graph_generators;
          Alcotest.test_case "grid diameter" `Quick test_grid_diameter;
          Alcotest.test_case "lollipop diameter" `Quick test_lollipop_shape;
          Alcotest.test_case "regular degrees" `Quick test_regular_degrees;
          Alcotest.test_case "hidden path family" `Quick test_hidden_path;
          Alcotest.test_case "reweight keeps topology" `Quick test_reweight_preserves_topology;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "pinned output digests" `Quick test_generator_digests;
          Alcotest.test_case "ladder validates its length" `Quick test_ladder_validates;
          Alcotest.test_case "geometric with a tiny radius" `Quick test_geometric_tiny_radius;
          Alcotest.test_case "rng draws allocate nothing" `Quick test_rng_allocation_free;
        ] );
      ( "domination",
        [
          Alcotest.test_case "size bound" `Quick test_size_bound;
          Alcotest.test_case "is_k_dominating" `Quick test_is_k_dominating;
          Alcotest.test_case "coverage radius" `Quick test_coverage_radius;
          Alcotest.test_case "dominator assignment" `Quick test_dominator_assignment;
          Alcotest.test_case "bfs_levels bound" `Quick test_bfs_levels_bound;
          Alcotest.test_case "bfs_levels shallow tree" `Quick test_bfs_levels_shallow;
          Alcotest.test_case "lemma-2.1 gap regression" `Quick test_lemma_gap;
          Alcotest.test_case "deepest-first greedy" `Quick test_deepest_first;
          Alcotest.test_case "greedy quality" `Quick test_greedy_quality;
          Alcotest.test_case "brute force optimum" `Quick test_brute_force;
        ] );
      ("properties", qcheck_cases);
    ]
