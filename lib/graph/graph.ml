type edge = { u : int; v : int; w : int; id : int }

(* Flat CSR adjacency: node [v]'s incident half-edges occupy
   [off.(v) .. off.(v+1) - 1] of [nbr] (the opposite endpoint) and [eid]
   (the edge id), strictly ascending in [nbr]. *)
type t = {
  n : int;
  edges : edge array;
  off : int array; (* n+1 *)
  nbr : int array; (* 2m *)
  eid : int array; (* 2m *)
}

let n g = g.n
let m g = Array.length g.edges
let edges g = g.edges
let edge g id = g.edges.(id)
let offsets g = g.off
let targets g = g.nbr
let edge_ids g = g.eid
let degree g v = g.off.(v + 1) - g.off.(v)

let neighbor g v i =
  if i < 0 || i >= degree g v then invalid_arg "Graph.neighbor: index out of range";
  g.nbr.(g.off.(v) + i)

let iter_neighbors g v f =
  for j = g.off.(v) to g.off.(v + 1) - 1 do
    f g.nbr.(j) g.edges.(g.eid.(j))
  done

let fold_neighbors g v f acc =
  let acc = ref acc in
  for j = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f g.nbr.(j) g.edges.(g.eid.(j)) !acc
  done;
  !acc

(* Binary search of [u]'s sorted segment: O(log deg u), no side table. *)
let port g u v =
  if u < 0 || u >= g.n then -1
  else begin
    let lo = ref g.off.(u) and hi = ref g.off.(u + 1) in
    let res = ref (-1) in
    while !res < 0 && !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      let d = g.nbr.(mid) in
      if d = v then res := mid else if d < v then lo := mid + 1 else hi := mid
    done;
    !res
  end

let other_endpoint e v =
  if e.u = v then e.v
  else if e.v = v then e.u
  else invalid_arg "Graph.other_endpoint: vertex not an endpoint"

(* Counting-sort build, O(n + m) with no hashing and no comparison sort:
   count degrees, scatter both half-edges into per-node buckets in input
   order, then transpose — walking x = 0 .. n-1 and appending x to the
   bucket of each of its neighbours leaves every bucket sorted, and a
   duplicate edge shows up as x appended twice in a row. *)
let of_edge_array ~n:nn arr =
  if nn < 0 then invalid_arg "Graph.of_edge_array: negative n";
  let off = Array.make (nn + 1) 0 in
  let edges =
    Array.mapi
      (fun id (a, b, w) ->
        if a = b then invalid_arg "Graph.of_edge_array: self-loop";
        if a < 0 || a >= nn || b < 0 || b >= nn then
          invalid_arg "Graph.of_edge_array: endpoint out of range";
        off.(a + 1) <- off.(a + 1) + 1;
        off.(b + 1) <- off.(b + 1) + 1;
        if a < b then { u = a; v = b; w; id } else { u = b; v = a; w; id })
      arr
  in
  for v = 0 to nn - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let half = off.(nn) in
  let pos = Array.sub off 0 nn in
  let scat_nbr = Array.make half 0 and scat_eid = Array.make half 0 in
  Array.iter
    (fun { u; v; id; _ } ->
      scat_nbr.(pos.(u)) <- v;
      scat_eid.(pos.(u)) <- id;
      pos.(u) <- pos.(u) + 1;
      scat_nbr.(pos.(v)) <- u;
      scat_eid.(pos.(v)) <- id;
      pos.(v) <- pos.(v) + 1)
    edges;
  Array.blit off 0 pos 0 nn;
  let nbr = Array.make half 0 and eid = Array.make half 0 in
  for x = 0 to nn - 1 do
    for j = off.(x) to off.(x + 1) - 1 do
      let y = scat_nbr.(j) in
      let p = pos.(y) in
      if p > off.(y) && nbr.(p - 1) = x then
        invalid_arg "Graph.of_edge_array: duplicate edge";
      nbr.(p) <- x;
      eid.(p) <- scat_eid.(j);
      pos.(y) <- p + 1
    done
  done;
  { n = nn; edges; off; nbr; eid }

let of_edges ~n es = of_edge_array ~n (Array.of_list es)

let find_edge g a b =
  let j = port g a b in
  if j < 0 then None else Some g.edges.(g.eid.(j))

let total_weight g = Array.fold_left (fun acc e -> acc + e.w) 0 g.edges

let has_distinct_weights g =
  let tbl = Hashtbl.create (m g) in
  Array.for_all
    (fun e ->
      if Hashtbl.mem tbl e.w then false
      else (
        Hashtbl.add tbl e.w ();
        true))
    g.edges

let is_connected g =
  if g.n = 0 then true
  else begin
    let visited = Array.make g.n false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    visited.(0) <- true;
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      for j = g.off.(v) to g.off.(v + 1) - 1 do
        let u = g.nbr.(j) in
        if not visited.(u) then begin
          visited.(u) <- true;
          incr count;
          Stack.push u stack
        end
      done
    done;
    !count = g.n
  end

let subgraph_of_edges g es =
  of_edge_array ~n:g.n (Array.of_list (List.map (fun e -> (e.u, e.v, e.w)) es))

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" g.n (m g);
  Array.iter (fun e -> Format.fprintf ppf "@,  %d -- %d (w=%d)" e.u e.v e.w) g.edges;
  Format.fprintf ppf "@]"
