open Kdom_graph
open Kdom

type level = {
  k : int;
  partition : Cluster.partition;
  cluster_of : int array;
  centers : int array;
}

type t = {
  graph : Graph.t;
  levels : level array;
  address : int array array;
  table_entries : int array;
  (* towards.(i).(c).(v) = next hop from v on a shortest path to the
     center of level-i cluster c *)
  towards : int array array array;
}

type route = { path : int list; hops : int; shortest : int; stretch : float }

type report = {
  avg_stretch : float;
  max_stretch : float;
  avg_table : float;
  max_table : int;
  pairs : int;
}

(* Build a host-level partition for level [i] by clustering the quotient of
   the previous level's partition. *)
let lift_level g (prev : level) ~k =
  let q, _witnesses = Cluster.quotient_graph prev.partition in
  (* the quotient has unit weights; FastDOM_G needs distinct ones *)
  let q_distinct =
    Graph.of_columns ~n:(Graph.n q) (Array.copy (Graph.lo q)) (Array.copy (Graph.hi q))
      (Array.init (Graph.m q) (fun id -> id + 1))
  in
  let dom = Fastdom_graph.run q_distinct ~k in
  let prev_clusters = Array.of_list prev.partition.clusters in
  let clusters =
    List.map
      (fun (c : Cluster.t) ->
        let members =
          List.concat_map (fun qc -> prev_clusters.(qc).members) c.members
        in
        ({ center = prev_clusters.(c.center).center; members } : Cluster.t))
      dom.partition.clusters
  in
  let partition = Cluster.partition g clusters in
  {
    k;
    partition;
    cluster_of = Cluster.cluster_of_array partition;
    centers =
      Array.of_list (List.map (fun (c : Cluster.t) -> c.center) partition.clusters);
  }

let build g ~ks =
  match ks with
  | [] -> invalid_arg "Hierarchy.build: at least one level required"
  | k0 :: rest ->
    List.iter (fun k -> if k < 1 then invalid_arg "Hierarchy.build: k must be >= 1") ks;
    let dom = Fastdom_graph.run g ~k:k0 in
    let level0 =
      {
        k = k0;
        partition = dom.partition;
        cluster_of = Cluster.cluster_of_array dom.partition;
        centers =
          Array.of_list
            (List.map (fun (c : Cluster.t) -> c.center) dom.partition.clusters);
      }
    in
    let levels = ref [ level0 ] in
    List.iter
      (fun k ->
        match !levels with
        | prev :: _ -> levels := lift_level g prev ~k :: !levels
        | [] -> assert false)
      rest;
    let levels = Array.of_list (List.rev !levels) in
    let n = Graph.n g in
    let address =
      Array.init n (fun v -> Array.map (fun l -> l.cluster_of.(v)) levels)
    in
    let towards =
      Array.map
        (fun l -> Array.map (fun c -> (Traversal.bfs g c).parent) l.centers)
        levels
    in
    (* table accounting: finest intra-cluster entries, per-level sub-center
       entries, and one entry per top-level center *)
    let nl = Array.length levels in
    let top = levels.(nl - 1) in
    let cluster_sizes =
      Array.map
        (fun l ->
          Array.of_list
            (List.map (fun (c : Cluster.t) -> List.length c.members) l.partition.clusters))
        levels
    in
    let subcluster_counts =
      (* for level i >= 1: number of level-(i-1) clusters inside each
         level-i cluster *)
      Array.init nl (fun i ->
          if i = 0 then [||]
          else begin
            (* count distinct level-(i-1) clusters inside each level-i one *)
            let counts = Array.make (Array.length levels.(i).centers) 0 in
            let seen = Hashtbl.create 64 in
            Array.iteri
              (fun v _ ->
                let parent_c = levels.(i).cluster_of.(v) in
                let sub_c = levels.(i - 1).cluster_of.(v) in
                if not (Hashtbl.mem seen (parent_c, sub_c)) then begin
                  Hashtbl.add seen (parent_c, sub_c) ();
                  counts.(parent_c) <- counts.(parent_c) + 1
                end)
              levels.(i).cluster_of;
            counts
          end)
    in
    let table_entries =
      Array.init n (fun v ->
          let intra = cluster_sizes.(0).(address.(v).(0)) in
          let per_level = ref 0 in
          for i = 1 to nl - 1 do
            per_level := !per_level + subcluster_counts.(i).(address.(v).(i))
          done;
          intra + !per_level + Array.length top.centers)
    in
    { graph = g; levels; address; table_entries; towards }

(* shortest path segment from [src] to [dst] following the precomputed BFS
   parents towards [dst]'s table entry *)
let segment parents ~src ~dst =
  let rec go v acc = if v = dst then List.rev (v :: acc) else go parents.(v) (v :: acc) in
  go src []

(* shortest path inside the finest cluster of [dst] *)
let intra_path t ~src ~dst =
  let ci = t.levels.(0).cluster_of.(dst) in
  if t.levels.(0).cluster_of.(src) <> ci then
    invalid_arg "Hierarchy.intra_path: different finest clusters";
  let inside v = t.levels.(0).cluster_of.(v) = ci in
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent src (-1);
  let q = Queue.create () in
  Queue.add src q;
  while (not (Hashtbl.mem parent dst)) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors t.graph v (fun u _ ->
      if inside u && not (Hashtbl.mem parent u) then begin
        Hashtbl.replace parent u v;
        Queue.add u q
      end)
  done;
  if not (Hashtbl.mem parent dst) then
    invalid_arg "Hierarchy.intra_path: cluster not connected";
  let rec walk v acc = if v = -1 then acc else walk (Hashtbl.find parent v) (v :: acc) in
  walk dst []

let route t ~src ~dst =
  let nl = Array.length t.levels in
  (* climb to the destination's top-level center, then descend the chain *)
  let stops =
    List.init nl (fun j ->
        let i = nl - 1 - j in
        let c = t.address.(dst).(i) in
        (i, c, t.levels.(i).centers.(c)))
  in
  let path = ref [ src ] in
  let current = ref src in
  List.iter
    (fun (i, c, center) ->
      if !current <> center then begin
        let seg = segment t.towards.(i).(c) ~src:!current ~dst:center in
        path := !path @ List.tl seg;
        current := center
      end)
    stops;
  (if !current <> dst then
     match intra_path t ~src:!current ~dst with
     | [] -> ()
     | _ :: tail -> path := !path @ tail);
  let path = !path in
  let hops = List.length path - 1 in
  let shortest = (Traversal.bfs t.graph src).dist.(dst) in
  let stretch = if shortest = 0 then 1.0 else float_of_int hops /. float_of_int shortest in
  { path; hops; shortest; stretch }

let evaluate ~rng t ~pairs =
  let n = Graph.n t.graph in
  let total = ref 0.0 and worst = ref 1.0 and count = ref 0 in
  for _i = 1 to pairs do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then begin
      let r = route t ~src ~dst in
      total := !total +. r.stretch;
      worst := Float.max !worst r.stretch;
      incr count
    end
  done;
  let entries = Array.fold_left ( + ) 0 t.table_entries in
  {
    avg_stretch = (if !count = 0 then 1.0 else !total /. float_of_int !count);
    max_stretch = !worst;
    avg_table = float_of_int entries /. float_of_int n;
    max_table = Array.fold_left max 0 t.table_entries;
    pairs = !count;
  }
