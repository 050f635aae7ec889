let weight es = List.fold_left (fun acc (e : Graph.edge) -> acc + e.w) 0 es

(* Edge ids in (weight, id) order. *)
let by_weight g =
  let ws = Graph.weights g in
  let ids = Array.init (Graph.m g) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare ws.(a) ws.(b) in
      if c <> 0 then c else compare a b)
    ids;
  ids

let kruskal g =
  let lo = Graph.lo g and hi = Graph.hi g in
  let uf = Union_find.create (Graph.n g) in
  Array.fold_left
    (fun acc id -> if Union_find.union uf lo.(id) hi.(id) then Graph.edge g id :: acc else acc)
    [] (by_weight g)
  |> List.rev

module Heap = struct
  (* Minimal binary min-heap over (key, payload). *)
  type 'a t = { mutable data : (int * 'a) array; mutable len : int }

  let create () = { data = [||]; len = 0 }
  let is_empty h = h.len = 0

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key payload =
    if h.len = Array.length h.data then begin
      let cap = max 8 (2 * h.len) in
      let data = Array.make cap (key, payload) in
      Array.blit h.data 0 data 0 h.len;
      h.data <- data
    end;
    h.data.(h.len) <- (key, payload);
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let pop h =
    if h.len = 0 then invalid_arg "Heap.pop: empty";
    let top = h.data.(0) in
    h.len <- h.len - 1;
    h.data.(0) <- h.data.(h.len);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < h.len && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
      if r < h.len && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        swap h !i !smallest;
        i := !smallest
      end
    done;
    top
end

let prim g =
  let n = Graph.n g in
  if n = 0 then []
  else begin
    let lo = Graph.lo g and hi = Graph.hi g and ws = Graph.weights g in
    let in_tree = Array.make n false in
    let heap = Heap.create () in
    let acc = ref [] in
    let add v =
      in_tree.(v) <- true;
      Graph.iter_neighbors g v (fun u id -> if not in_tree.(u) then Heap.push heap ws.(id) id)
    in
    add 0;
    while not (Heap.is_empty heap) do
      let _, id = Heap.pop heap in
      let next =
        if not in_tree.(lo.(id)) then lo.(id)
        else if not in_tree.(hi.(id)) then hi.(id)
        else -1
      in
      if next >= 0 then begin
        acc := Graph.edge g id :: !acc;
        add next
      end
    done;
    List.rev !acc
  end

let boruvka g =
  let n = Graph.n g in
  let lo = Graph.lo g and hi = Graph.hi g and ws = Graph.weights g in
  let uf = Union_find.create n in
  let chosen = ref [] in
  let changed = ref true in
  while !changed && Union_find.count uf > 1 do
    changed := false;
    (* For each component, its minimum outgoing edge id (indexed by root;
       -1 for none), least (weight, id) first. *)
    let best = Array.make n (-1) in
    for id = 0 to Graph.m g - 1 do
      let ru = Union_find.find uf lo.(id) and rv = Union_find.find uf hi.(id) in
      if ru <> rv then begin
        let update r =
          let b = best.(r) in
          if b < 0 || ws.(id) < ws.(b) || (ws.(id) = ws.(b) && id < b) then best.(r) <- id
        in
        update ru;
        update rv
      end
    done;
    Array.iter
      (fun id ->
        if id >= 0 && Union_find.union uf lo.(id) hi.(id) then begin
          chosen := id :: !chosen;
          changed := true
        end)
      best
  done;
  List.map (Graph.edge g) (List.sort compare !chosen)

let is_spanning_tree g es =
  let n = Graph.n g in
  List.length es = n - 1
  &&
  let uf = Union_find.create n in
  List.for_all (fun (e : Graph.edge) -> Union_find.union uf e.u e.v) es

let is_mst g es =
  is_spanning_tree g es && weight es = weight (kruskal g)

let same_edge_set a b =
  let ids es = List.sort_uniq compare (List.map (fun (e : Graph.edge) -> e.id) es) in
  ids a = ids b

let mst_of_multigraph ~n edges =
  let arr = Array.of_list edges in
  let order = Array.init (Array.length arr) Fun.id in
  Array.sort
    (fun i j ->
      let (_, _, wi, _) = arr.(i) and (_, _, wj, _) = arr.(j) in
      compare (wi, i) (wj, j))
    order;
  let uf = Union_find.create n in
  Array.fold_left
    (fun acc i ->
      let u, v, _, label = arr.(i) in
      if u <> v && Union_find.union uf u v then label :: acc else acc)
    [] order
  |> List.rev
