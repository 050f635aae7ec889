open Kdom_graph

type t = { center : int; members : int list }
type partition = { host : Graph.t; clusters : t list }

let size c = List.length c.members
let singleton v = { center = v; members = [ v ] }

let partition host clusters =
  let n = Graph.n host in
  let seen = Array.make n false in
  List.iter
    (fun c ->
      if not (List.mem c.center c.members) then
        invalid_arg "Cluster.partition: center not a member of its cluster";
      List.iter
        (fun v ->
          if v < 0 || v >= n then invalid_arg "Cluster.partition: node out of range";
          if seen.(v) then invalid_arg "Cluster.partition: clusters overlap";
          seen.(v) <- true)
        c.members)
    clusters;
  if not (Array.for_all Fun.id seen) then
    invalid_arg "Cluster.partition: clusters do not cover all nodes";
  { host; clusters }

let cluster_of_array p =
  let owner = Array.make (Graph.n p.host) (-1) in
  List.iteri (fun i c -> List.iter (fun v -> owner.(v) <- i) c.members) p.clusters;
  owner

let centers p = List.map (fun c -> c.center) p.clusters

(* BFS restricted to the member set. *)
let restricted_distances host c =
  let inside = Hashtbl.create (size c) in
  List.iter (fun v -> Hashtbl.replace inside v ()) c.members;
  let dist = Hashtbl.create (size c) in
  Hashtbl.replace dist c.center 0;
  let q = Queue.create () in
  Queue.add c.center q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let dv = Hashtbl.find dist v in
    Graph.iter_neighbors host v (fun u _ ->
      if Hashtbl.mem inside u && not (Hashtbl.mem dist u) then begin
        Hashtbl.replace dist u (dv + 1);
        Queue.add u q
      end)
  done;
  dist

let radius host c =
  let dist = restricted_distances host c in
  List.fold_left
    (fun acc v ->
      match Hashtbl.find_opt dist v with
      | Some d -> max acc d
      | None -> invalid_arg "Cluster.radius: induced subgraph disconnected")
    0 c.members

let induced_connected host c =
  let dist = restricted_distances host c in
  List.for_all (fun v -> Hashtbl.mem dist v) c.members

let max_radius p = List.fold_left (fun acc c -> max acc (radius p.host c)) 0 p.clusters

let min_size p =
  match p.clusters with
  | [] -> 0
  | cs -> List.fold_left (fun acc c -> min acc (size c)) max_int cs

let write_tree host c ~parent ~depth =
  let inside = Hashtbl.create (size c) in
  List.iter (fun v -> Hashtbl.replace inside v ()) c.members;
  let seen = Hashtbl.create (size c) in
  Hashtbl.replace seen c.center ();
  parent.(c.center) <- -1;
  depth.(c.center) <- 0;
  let q = Queue.create () in
  Queue.add c.center q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Graph.iter_neighbors host v (fun u _ ->
      if Hashtbl.mem inside u && not (Hashtbl.mem seen u) then begin
        Hashtbl.replace seen u ();
        parent.(u) <- v;
        depth.(u) <- depth.(v) + 1;
        Queue.add u q
      end)
  done;
  List.iter
    (fun v ->
      if not (Hashtbl.mem seen v) then
        invalid_arg "Cluster.write_tree: induced subgraph disconnected")
    c.members

let plan_of_partition p =
  let n = Graph.n p.host in
  let dominator = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  List.iter
    (fun c ->
      List.iter (fun v -> dominator.(v) <- c.center) c.members;
      write_tree p.host c ~parent ~depth)
    p.clusters;
  { Kdom_congest.Repair.dominator; parent; depth }

let plan_of_centers g centers =
  let n = Graph.n g in
  if centers = [] then invalid_arg "Cluster.plan_of_centers: no centers";
  List.iter
    (fun c ->
      if c < 0 || c >= n then
        invalid_arg "Cluster.plan_of_centers: center out of range")
    centers;
  let b = Traversal.bfs_multi g centers in
  let dominator = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let depth = Array.make n 0 in
  List.iter (fun c -> dominator.(c) <- c) centers;
  (* visit order guarantees a node's BFS parent is finished first, so
     ownership flows outward from each center; unreachable nodes keep the
     joiner sentinel (-1, -1, 0) *)
  Array.iter
    (fun v ->
      if b.Traversal.dist.(v) > 0 then begin
        parent.(v) <- b.Traversal.parent.(v);
        depth.(v) <- b.Traversal.dist.(v);
        dominator.(v) <- dominator.(b.Traversal.parent.(v))
      end)
    b.Traversal.order;
  { Kdom_congest.Repair.dominator; parent; depth }

let induced g members =
  let members = Array.of_list members in
  let local = Hashtbl.create (Array.length members) in
  Array.iteri (fun i v -> Hashtbl.replace local v i) members;
  let lo = Graph.lo g and hi = Graph.hi g and ws = Graph.weights g in
  let edges = ref [] in
  for id = Graph.m g - 1 downto 0 do
    match (Hashtbl.find_opt local lo.(id), Hashtbl.find_opt local hi.(id)) with
    | Some a, Some b -> edges := (a, b, ws.(id)) :: !edges
    | _ -> ()
  done;
  (Graph.of_edges ~n:(Array.length members) !edges, members)

let quotient_graph p =
  let owner = cluster_of_array p in
  let k = List.length p.clusters in
  let seen = Hashtbl.create 16 in
  let pairs = ref [] in
  let witnesses = ref [] in
  let lo = Graph.lo p.host and hi = Graph.hi p.host in
  for id = 0 to Graph.m p.host - 1 do
    let a = owner.(lo.(id)) and b = owner.(hi.(id)) in
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        pairs := (fst key, snd key, 1) :: !pairs;
        witnesses := (lo.(id), hi.(id)) :: !witnesses
      end
    end
  done;
  (Graph.of_edges ~n:k (List.rev !pairs), List.rev !witnesses)
