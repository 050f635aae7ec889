let weight es = List.fold_left (fun acc (e : Graph.edge) -> acc + e.w) 0 es

let kruskal g =
  let es = Array.copy (Graph.edges g) in
  Array.sort (fun (a : Graph.edge) b -> compare (a.w, a.id) (b.w, b.id)) es;
  let uf = Union_find.create (Graph.n g) in
  Array.fold_left
    (fun acc (e : Graph.edge) -> if Union_find.union uf e.u e.v then e :: acc else acc)
    [] es
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
    let in_tree = Array.make n false in
    let heap = Heap.create () in
    let acc = ref [] in
    let add v =
      in_tree.(v) <- true;
      Graph.iter_neighbors g v (fun u (e : Graph.edge) ->
        if not in_tree.(u) then Heap.push heap e.w e)
    in
    add 0;
    while not (Heap.is_empty heap) do
      let _, (e : Graph.edge) = Heap.pop heap in
      let next =
        if not in_tree.(e.u) then Some e.u
        else if not in_tree.(e.v) then Some e.v
        else None
      in
      match next with
      | Some v ->
        acc := e :: !acc;
        add v
      | None -> ()
    done;
    List.rev !acc
  end

let boruvka g =
  let n = Graph.n g in
  let uf = Union_find.create n in
  let chosen = ref [] in
  let changed = ref true in
  while !changed && Union_find.count uf > 1 do
    changed := false;
    (* For each component, its minimum outgoing edge (indexed by root). *)
    let best : Graph.edge option array = Array.make n None in
    Array.iter
      (fun (e : Graph.edge) ->
        let ru = Union_find.find uf e.u and rv = Union_find.find uf e.v in
        if ru <> rv then begin
          let update r =
            match best.(r) with
            | Some b when (b.w, b.id) <= (e.w, e.id) -> ()
            | _ -> best.(r) <- Some e
          in
          update ru;
          update rv
        end)
      (Graph.edges g);
    Array.iter
      (function
        | Some (e : Graph.edge) ->
          if Union_find.union uf e.u e.v then begin
            chosen := e :: !chosen;
            changed := true
          end
        | None -> ())
      best
  done;
  List.sort (fun (a : Graph.edge) b -> compare a.id b.id) !chosen

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
