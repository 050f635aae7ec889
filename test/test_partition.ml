(* Tests for Small_dom_set, Balanced_dom, the DOM_Partition family and
   FastDOM_T (§3 of the paper). *)

open Kdom_graph
open Kdom

let tree_families seed =
  let r = Rng.create seed in
  [
    ("path64", Generators.path ~rng:r 64);
    ("path65", Generators.path ~rng:r 65);
    ("star33", Generators.star ~rng:r 33);
    ("binary127", Generators.binary_tree ~rng:r 127);
    ("caterpillar", Generators.caterpillar ~rng:r ~spine:10 ~legs:4);
    ("broom", Generators.broom ~rng:r ~handle:12 ~bristles:12);
    ("random200", Generators.random_tree ~rng:r 200);
    ("random500", Generators.random_tree ~rng:r 500);
    ("attach300", Generators.random_attachment_tree ~rng:r 300);
  ]

(* ------------------------------------------------------------------ *)
(* Small_dom_set / Balanced_dom *)

let check_stars name g (dominating : bool array) (dominator : int array) ~min_size =
  let t = Tree.root_at g 0 in
  let nodes = Tree.nodes t in
  (* every node has a center that is dominating and adjacent (or itself) *)
  List.iter
    (fun v ->
      let c = dominator.(v) in
      Alcotest.(check bool) (name ^ " center in D") true dominating.(c);
      Alcotest.(check bool)
        (name ^ " center adjacent")
        true
        (c = v || Option.is_some (Graph.find_edge g v c)))
    nodes;
  (* centers belong to their own star *)
  List.iter
    (fun v ->
      if dominating.(v) then Alcotest.(check int) (name ^ " self-center") v dominator.(v))
    nodes;
  (* star sizes *)
  let sizes = Hashtbl.create 16 in
  List.iter
    (fun v ->
      Hashtbl.replace sizes dominator.(v)
        (1 + Option.value ~default:0 (Hashtbl.find_opt sizes dominator.(v))))
    nodes;
  Hashtbl.iter
    (fun _c s -> Alcotest.(check bool) (name ^ " star size") true (s >= min_size))
    sizes

let test_small_dom_set_mis () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let s = Small_dom_set.via_mis t in
      check_stars name g s.dominating s.dominator ~min_size:1;
      (* Lemma 3.2: every dominator has a neighbor outside D *)
      List.iter
        (fun v ->
          if s.dominating.(v) then
            Alcotest.(check bool) (name ^ " outside neighbor") true
              (Graph.fold_neighbors g v (fun u _ acc ->
                acc || not s.dominating.(u)) false))
        (Tree.nodes t))
    (tree_families 1)

let test_small_dom_set_matching () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let s = Small_dom_set.via_matching t in
      check_stars name g s.dominating s.dominator ~min_size:2;
      (* balanced construction achieves the floor(n/2) bound directly *)
      let d = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s.dominating in
      Alcotest.(check bool) (name ^ " |D| <= n/2") true (d <= Graph.n g / 2))
    (tree_families 2)

let test_balanced_dom () =
  List.iter
    (fun (name, g) ->
      let t = Tree.root_at g 0 in
      let b = Balanced_dom.run t in
      check_stars name g b.dominating b.dominator ~min_size:2;
      let d = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 b.dominating in
      Alcotest.(check bool) (name ^ " |D| <= n/2") true (d <= Graph.n g / 2);
      Alcotest.(check bool) (name ^ " D nonempty") true (d >= 1))
    (tree_families 3)

let test_balanced_dom_star_graph () =
  (* A star is the hard case: the MIS can be all the leaves. *)
  let g = Generators.star ~rng:(Rng.create 7) 40 in
  let t = Tree.root_at g 0 in
  let b = Balanced_dom.run t in
  let d = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 b.dominating in
  Alcotest.(check bool) "star: |D| <= n/2" true (d <= 20);
  check_stars "star40" g b.dominating b.dominator ~min_size:2

let test_balanced_dom_two_nodes () =
  let g = Generators.path ~rng:(Rng.create 8) 2 in
  let t = Tree.root_at g 0 in
  let b = Balanced_dom.run t in
  let d = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 b.dominating in
  Alcotest.(check int) "one dominator" 1 d

let test_balanced_dom_rounds () =
  let g = Generators.random_tree ~rng:(Rng.create 9) 5000 in
  let t = Tree.root_at g 0 in
  let b = Balanced_dom.run t in
  Alcotest.(check bool) "O(log* n) rounds" true (b.rounds <= 20)

(* ------------------------------------------------------------------ *)
(* Dom_partition *)

let check_partition_result name g k (r : Dom_partition.result) ~radius_bound =
  (* it is a partition (coverage, disjointness, centers) *)
  let p = Dom_partition.partition g r in
  ignore p;
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d min size %d >= k+1" name k (Dom_partition.min_size r))
    true
    (Dom_partition.min_size r >= k + 1);
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d max radius %d <= %d" name k (Dom_partition.max_radius r)
       radius_bound)
    true
    (Dom_partition.max_radius r <= radius_bound);
  (* clusters induce connected subtrees *)
  List.iter
    (fun (c : Forest.cluster) ->
      Alcotest.(check bool) (name ^ " cluster connected") true
        (Cluster.induced_connected g { center = c.center; members = c.members }))
    r.clusters

let ks_for g = List.filter (fun k -> Graph.n g >= k + 1) [ 1; 2; 3; 5; 8 ]

let test_partition_1 () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let r = Dom_partition.run_1 g ~k in
          check_partition_result name g k r ~radius_bound:(4 * k * k + 4))
        (ks_for g))
    (tree_families 4)

let test_partition_2 () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let r = Dom_partition.run_2 g ~k in
          check_partition_result name g k r ~radius_bound:((5 * k) + 2))
        (ks_for g))
    (tree_families 5)

let test_partition_fast () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          let r = Dom_partition.run g ~k in
          check_partition_result name g k r ~radius_bound:((5 * k) + 2))
        (ks_for g))
    (tree_families 6)

let test_partition_round_shapes () =
  (* Lemma 3.8 vs the O(k log k log* n) of the capped variant: the fast
     variant must meet c*k*(log* n + c') on every family, while the capped
     variant only has to meet the extra log k factor. *)
  let check g name k =
    let n = Graph.n g in
    let unit = Kdom.Log_star.log_star n + 30 in
    let fast = Dom_partition.run g ~k in
    let capped = Dom_partition.run_2 g ~k in
    let fast_bound = 16 * (k + 1) * unit in
    let capped_bound = 16 * (k + 1) * (Kdom.Log_star.ceil_log2 (k + 1) + 1) * unit in
    Alcotest.(check bool)
      (Printf.sprintf "%s fast %d <= %d" name fast.rounds fast_bound)
      true (fast.rounds <= fast_bound);
    Alcotest.(check bool)
      (Printf.sprintf "%s capped %d <= %d" name capped.rounds capped_bound)
      true
      (capped.rounds <= capped_bound)
  in
  let r = Rng.create 11 in
  check (Generators.path ~rng:r 3000) "path3000" 64;
  check (Generators.random_tree ~rng:r 2000) "random2000" 32;
  check (Generators.binary_tree ~rng:r 2047) "binary2047" 16;
  check (Generators.caterpillar ~rng:r ~spine:300 ~legs:4) "caterpillar" 24

let test_partition_matching_variant () =
  (* the alternative Small-Dom-Set construction must work as a drop-in *)
  let g = Generators.random_tree ~rng:(Rng.create 12) 300 in
  let r = Dom_partition.run ~small:Small_dom_set.via_matching g ~k:4 in
  check_partition_result "matching-variant" g 4 r ~radius_bound:22

(* The typed invariant error (replaces a bare [invalid_arg]): it must be
   catchable by constructor, carry the offending cluster, and render through
   the registered printer. *)
let test_partition_invariant_payload () =
  let exn =
    Dom_partition.Partition_invariant
      { stage = "DOM_Partition_2"; k = 3; size = 2; radius = 1; members = [ 4; 7 ] }
  in
  (match exn with
  | Dom_partition.Partition_invariant { stage; k; size; radius; members } ->
    Alcotest.(check string) "stage" "DOM_Partition_2" stage;
    Alcotest.(check int) "k" 3 k;
    Alcotest.(check int) "size" 2 size;
    Alcotest.(check int) "radius" 1 radius;
    Alcotest.(check (list int)) "members" [ 4; 7 ] members
  | _ -> Alcotest.fail "wrong constructor");
  let s = Printexc.to_string exn in
  let contains needle =
    let ls = String.length s and ln = String.length needle in
    let rec find i = i + ln <= ls && (String.sub s i ln = needle || find (i + 1)) in
    find 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then
        Alcotest.failf "printer output %S misses %S" s needle)
    [ "DOM_Partition_2"; "size 2"; "k = 3"; "[4; 7]" ]

(* Invariant hunt on the degenerate end: paths and stars with n barely above
   k+1 are where a flush could plausibly leave an undersized cluster.  Every
   variant must either succeed with a valid partition or surface the typed
   witness — and in this repository they must succeed. *)
let prop_partition_edge =
  QCheck2.Test.make ~name:"DOM_Partition near n = k+1 (paths/stars)" ~count:120
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 1 7) (int_range 0 4))
    (fun (seed, k, slack) ->
      let n = max 2 (k + 1 + slack) in
      let graphs =
        [
          ("path", Generators.path ~rng:(Rng.create seed) n);
          ("star", Generators.star ~rng:(Rng.create (seed + 1)) n);
          ("tree", Generators.random_tree ~rng:(Rng.create (seed + 2)) n);
        ]
      in
      let variants =
        [
          ("run", fun g -> Dom_partition.run g ~k);
          ("run_1", fun g -> Dom_partition.run_1 g ~k);
          ("run_2", fun g -> Dom_partition.run_2 g ~k);
        ]
      in
      List.iter
        (fun (fam, g) ->
          List.iter
            (fun (vname, run) ->
              match run g with
              | r ->
                if Dom_partition.min_size r < k + 1 then
                  QCheck2.Test.fail_reportf
                    "%s %s n=%d k=%d: cluster of size %d < k+1" fam vname n k
                    (Dom_partition.min_size r);
                ignore (Dom_partition.partition g r)
              | exception Dom_partition.Partition_invariant
                  { stage; size; radius; members; _ } ->
                QCheck2.Test.fail_reportf
                  "%s %s n=%d k=%d: %s flushed size=%d radius=%d members=[%s]"
                  fam vname n k stage size radius
                  (String.concat ";" (List.map string_of_int members)))
            variants)
        graphs;
      true)

let prop_partition =
  QCheck2.Test.make ~name:"DOM_Partition valid on random trees" ~count:60
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 20 150) (int_range 1 6))
    (fun (seed, n, k) ->
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      if n < k + 1 then true
      else begin
        let r = Dom_partition.run g ~k in
        let p = Dom_partition.partition g r in
        ignore p;
        Dom_partition.min_size r >= k + 1
        && Dom_partition.max_radius r <= (5 * k) + 2
      end)

(* ------------------------------------------------------------------ *)
(* Fastdom_tree *)

let check_fastdom name g k (r : Fastdom_tree.result) =
  let n = Graph.n g in
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d dominates" name k)
    true
    (Domination.is_k_dominating g ~k r.dominating);
  (* the paper's headline size shape: measured against 2n/(k+1); the
     typical value, checked in the benches, is below n/(k+1) *)
  let bound = max 1 (2 * n / (k + 1)) in
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d size %d <= %d" name k (List.length r.dominating) bound)
    true
    (List.length r.dominating <= bound);
  (* Corollary 3.9(b): the output partition has radius <= k *)
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d partition radius" name k)
    true
    (Cluster.max_radius r.partition <= k);
  (* every cluster center is a dominator *)
  List.iter
    (fun (c : Cluster.t) ->
      Alcotest.(check bool) (name ^ " centers dominate") true
        (List.mem c.center r.dominating))
    r.partition.clusters;
  Alcotest.(check bool)
    (Printf.sprintf "%s k=%d rounds %d <= bound %d" name k r.rounds
       (Fastdom_tree.round_bound ~n ~k))
    true
    (r.rounds <= Fastdom_tree.round_bound ~n ~k)

let test_fastdom_tree () =
  List.iter
    (fun (name, g) ->
      List.iter (fun k -> check_fastdom name g k (Fastdom_tree.run g ~k)) [ 1; 2; 3; 5; 8 ])
    (tree_families 7)

let test_fastdom_tree_small () =
  (* trees smaller than k+1 are a single cluster dominated by the root *)
  let g = Generators.random_tree ~rng:(Rng.create 13) 5 in
  let r = Fastdom_tree.run g ~k:10 in
  Alcotest.(check int) "single dominator" 1 (List.length r.dominating);
  Alcotest.(check bool) "dominates" true
    (Domination.is_k_dominating g ~k:10 r.dominating)

let test_fastdom_variants_agree_on_validity () =
  let g = Generators.random_tree ~rng:(Rng.create 14) 400 in
  List.iter
    (fun variant ->
      let r = Fastdom_tree.run ~variant g ~k:4 in
      Alcotest.(check bool) "variant dominates" true
        (Domination.is_k_dominating g ~k:4 r.dominating))
    [ Fastdom_tree.Fast; Fastdom_tree.Capped; Fastdom_tree.Quadratic ]

let prop_fastdom_tree =
  QCheck2.Test.make ~name:"FastDOM_T valid on random trees" ~count:40
    QCheck2.Gen.(triple (int_bound 10_000) (int_range 2 200) (int_range 1 8))
    (fun (seed, n, k) ->
      let g = Generators.random_tree ~rng:(Rng.create seed) n in
      let r = Fastdom_tree.run g ~k in
      Domination.is_k_dominating g ~k r.dominating
      && Cluster.max_radius r.partition <= k
      && List.length r.dominating <= max 1 (2 * Graph.n g / (k + 1)))

let () =
  Alcotest.run "partition"
    [
      ( "small_dom_set",
        [
          Alcotest.test_case "via MIS (Lemma 3.2)" `Quick test_small_dom_set_mis;
          Alcotest.test_case "via matching" `Quick test_small_dom_set_matching;
        ] );
      ( "balanced_dom",
        [
          Alcotest.test_case "families (Lemma 3.3)" `Quick test_balanced_dom;
          Alcotest.test_case "star graph" `Quick test_balanced_dom_star_graph;
          Alcotest.test_case "two nodes" `Quick test_balanced_dom_two_nodes;
          Alcotest.test_case "log* rounds" `Quick test_balanced_dom_rounds;
        ] );
      ( "dom_partition",
        [
          Alcotest.test_case "variant 1 (Lemma 3.4)" `Quick test_partition_1;
          Alcotest.test_case "variant 2 (Lemma 3.6)" `Quick test_partition_2;
          Alcotest.test_case "fast variant (Lemma 3.7)" `Quick test_partition_fast;
          Alcotest.test_case "round-count shapes" `Quick test_partition_round_shapes;
          Alcotest.test_case "matching small-dom-set variant" `Quick
            test_partition_matching_variant;
          Alcotest.test_case "Partition_invariant payload" `Quick
            test_partition_invariant_payload;
        ] );
      ( "fastdom_tree",
        [
          Alcotest.test_case "families (Theorem 3.2)" `Quick test_fastdom_tree;
          Alcotest.test_case "small trees" `Quick test_fastdom_tree_small;
          Alcotest.test_case "all variants valid" `Quick test_fastdom_variants_agree_on_validity;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_partition; prop_partition_edge; prop_fastdom_tree ] );
    ]
