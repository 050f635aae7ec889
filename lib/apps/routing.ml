open Kdom_graph
open Kdom

type scheme = {
  graph : Graph.t;
  k : int;
  partition : Cluster.partition;
  cluster_of : int array;
  centers : int array;
  table_entries : int array;
  (* towards.(c).(v) = next hop from v on a shortest path to center c *)
  towards : int array array;
}

type route = { path : int list; hops : int; shortest : int; stretch : float }

type report = {
  avg_stretch : float;
  max_stretch : float;
  avg_table : float;
  max_table : int;
  pairs : int;
  reachable : int;
}

exception Unreachable of { src : int; dst : int }

let of_partition g ~k partition =
  let cluster_of = Cluster.cluster_of_array partition in
  let centers =
    Array.of_list (List.map (fun (c : Cluster.t) -> c.center) partition.clusters)
  in
  let towards =
    Array.map (fun c -> (Traversal.bfs g c).parent) centers
  in
  let n = Graph.n g in
  let cluster_sizes =
    Array.of_list (List.map (fun (c : Cluster.t) -> List.length c.members) partition.clusters)
  in
  let table_entries =
    Array.init n (fun v -> cluster_sizes.(cluster_of.(v)) + Array.length centers)
  in
  { graph = g; k; partition; cluster_of; centers; table_entries; towards }

let build g ~k =
  let dom = Fastdom_graph.run g ~k in
  of_partition g ~k dom.partition

(* Shortest path from [src] to [dst] inside the member set of a cluster. *)
let intra_path scheme ~src ~dst =
  let ci = scheme.cluster_of.(src) in
  if scheme.cluster_of.(dst) <> ci then invalid_arg "Routing.intra_path: different clusters";
  let inside v = scheme.cluster_of.(v) = ci in
  let parent = Hashtbl.create 16 in
  Hashtbl.replace parent src (-1);
  let q = Queue.create () in
  Queue.add src q;
  while (not (Hashtbl.mem parent dst)) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors scheme.graph v (fun u _ ->
      if inside u && not (Hashtbl.mem parent u) then begin
        Hashtbl.replace parent u v;
        Queue.add u q
      end)
  done;
  if not (Hashtbl.mem parent dst) then raise (Unreachable { src; dst });
  let rec walk v acc = if v = -1 then acc else walk (Hashtbl.find parent v) (v :: acc) in
  walk dst []

let route scheme ~src ~dst =
  let path =
    if scheme.cluster_of.(src) = scheme.cluster_of.(dst) then intra_path scheme ~src ~dst
    else begin
      let ci = scheme.cluster_of.(dst) in
      let center = scheme.centers.(ci) in
      (* leg 1: climb the center's BFS tree; a source in another component
         carries the -1 parent sentinel, which used to index out of
         bounds — surface it as a typed failure instead *)
      let leg1 =
        let rec go v acc =
          if v = center then List.rev (v :: acc)
          else
            let next = scheme.towards.(ci).(v) in
            if next < 0 then raise (Unreachable { src; dst })
            else go next (v :: acc)
        in
        go src []
      in
      (* leg 2: deliver inside the destination cluster *)
      match intra_path scheme ~src:center ~dst with
      | [] -> leg1
      | _ :: tail -> leg1 @ tail
    end
  in
  let hops = List.length path - 1 in
  let shortest = (Traversal.bfs scheme.graph src).dist.(dst) in
  let stretch =
    if shortest = 0 then 1.0 else float_of_int hops /. float_of_int shortest
  in
  { path; hops; shortest; stretch }

let route_opt scheme ~src ~dst =
  match route scheme ~src ~dst with
  | r -> Some r
  | exception Unreachable _ -> None

let evaluate ~rng scheme ~pairs =
  let n = Graph.n scheme.graph in
  let total = ref 0.0 and worst = ref 1.0 and count = ref 0 and reached = ref 0 in
  for _i = 1 to pairs do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then begin
      incr count;
      match route_opt scheme ~src ~dst with
      | Some r ->
        incr reached;
        total := !total +. r.stretch;
        worst := Float.max !worst r.stretch
      | None -> ()
    end
  done;
  let entries = Array.fold_left ( + ) 0 scheme.table_entries in
  {
    avg_stretch = (if !reached = 0 then 1.0 else !total /. float_of_int !reached);
    max_stretch = !worst;
    avg_table = float_of_int entries /. float_of_int n;
    max_table = Array.fold_left max 0 scheme.table_entries;
    pairs = !count;
    reachable = !reached;
  }

let full_table_size g = Graph.n g
