type edge = { u : int; v : int; w : int; id : int }

(* Edge [id] joins [lo.(id) < hi.(id)] with weight [w.(id)]: flat int
   columns, no per-edge record.  Flat CSR adjacency beside them: node
   [v]'s incident half-edges occupy [off.(v) .. off.(v+1) - 1] of [nbr]
   (the opposite endpoint) and [eid] (the edge id), strictly ascending in
   [nbr]. *)
type t = {
  n : int;
  lo : int array; (* m *)
  hi : int array; (* m *)
  w : int array; (* m *)
  off : int array; (* n+1 *)
  nbr : int array; (* 2m *)
  eid : int array; (* 2m *)
}

let n g = g.n
let m g = Array.length g.w
let edge g id = { u = g.lo.(id); v = g.hi.(id); w = g.w.(id); id }
let edges g = Array.init (m g) (edge g)
let lo g = g.lo
let hi g = g.hi
let weights g = g.w
let offsets g = g.off
let targets g = g.nbr
let edge_ids g = g.eid
let degree g v = g.off.(v + 1) - g.off.(v)

let neighbor g v i =
  if i < 0 || i >= degree g v then invalid_arg "Graph.neighbor: index out of range";
  g.nbr.(g.off.(v) + i)

let iter_neighbors g v f =
  for j = g.off.(v) to g.off.(v + 1) - 1 do
    f g.nbr.(j) g.eid.(j)
  done

let fold_neighbors g v f acc =
  let acc = ref acc in
  for j = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f g.nbr.(j) g.eid.(j) !acc
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
   duplicate edge shows up as x appended twice in a row.  The columns are
   adopted: [us]/[vs] become [lo]/[hi] by swapping in place. *)
let of_columns ~n:nn us vs ws =
  if nn < 0 then invalid_arg "Graph.of_edge_array: negative n";
  let m = Array.length ws in
  if Array.length us <> m || Array.length vs <> m then
    invalid_arg "Graph.of_columns: column lengths differ";
  let off = Array.make (nn + 1) 0 in
  for id = 0 to m - 1 do
    let a = us.(id) and b = vs.(id) in
    if a = b then invalid_arg "Graph.of_edge_array: self-loop";
    if a < 0 || a >= nn || b < 0 || b >= nn then
      invalid_arg "Graph.of_edge_array: endpoint out of range";
    off.(a + 1) <- off.(a + 1) + 1;
    off.(b + 1) <- off.(b + 1) + 1;
    if a > b then begin
      us.(id) <- b;
      vs.(id) <- a
    end
  done;
  for v = 0 to nn - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let half = off.(nn) in
  let pos = Array.sub off 0 nn in
  let scat_nbr = Array.make half 0 and scat_eid = Array.make half 0 in
  for id = 0 to m - 1 do
    let u = us.(id) and v = vs.(id) in
    scat_nbr.(pos.(u)) <- v;
    scat_eid.(pos.(u)) <- id;
    pos.(u) <- pos.(u) + 1;
    scat_nbr.(pos.(v)) <- u;
    scat_eid.(pos.(v)) <- id;
    pos.(v) <- pos.(v) + 1
  done;
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
  { n = nn; lo = us; hi = vs; w = ws; off; nbr; eid }

let of_edge_array ~n arr =
  let m = Array.length arr in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.make m 0 in
  Array.iteri
    (fun i (a, b, w) ->
      us.(i) <- a;
      vs.(i) <- b;
      ws.(i) <- w)
    arr;
  of_columns ~n us vs ws

let of_edges ~n es =
  let m = List.length es in
  let us = Array.make m 0 and vs = Array.make m 0 and ws = Array.make m 0 in
  List.iteri
    (fun i (a, b, w) ->
      us.(i) <- a;
      vs.(i) <- b;
      ws.(i) <- w)
    es;
  of_columns ~n us vs ws

let find_edge g a b =
  let j = port g a b in
  if j < 0 then None else Some (edge g g.eid.(j))

let total_weight g = Array.fold_left ( + ) 0 g.w

let has_distinct_weights g =
  let tbl = Hashtbl.create (m g) in
  Array.for_all
    (fun w ->
      if Hashtbl.mem tbl w then false
      else (
        Hashtbl.add tbl w ();
        true))
    g.w

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
  of_edges ~n:g.n (List.map (fun e -> (e.u, e.v, e.w)) es)

let pp ppf g =
  Format.fprintf ppf "@[<v>graph n=%d m=%d" g.n (m g);
  for id = 0 to m g - 1 do
    Format.fprintf ppf "@,  %d -- %d (w=%d)" g.lo.(id) g.hi.(id) g.w.(id)
  done;
  Format.fprintf ppf "@]"
