(* All generators emit unweighted edge columns first, then attach random
   pairwise-distinct weights: a shuffled slice of [1 .. 4m], keeping weights
   polynomial in n as the paper assumes.  Edge [i] of the columns is edge
   [i] of the graph, so the emission order and the RNG stream fix every
   weight. *)

let distinct_weights ~rng m =
  if m = 0 then [||]
  else begin
    let pool = Array.make (4 * m) 0 in
    for i = 0 to (4 * m) - 1 do
      pool.(i) <- i + 1
    done;
    Rng.shuffle_ints rng pool;
    Array.sub pool 0 m
  end

let build ~rng ~n us vs = Graph.of_columns ~n us vs (distinct_weights ~rng (Array.length us))

(* Growable endpoint columns, for generators whose edge count is known
   only once they finish. *)
type growing = { mutable us : int array; mutable vs : int array; mutable len : int }

let growing cap = { us = Array.make (max 16 cap) 0; vs = Array.make (max 16 cap) 0; len = 0 }

let add_edge c u v =
  if c.len = Array.length c.us then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    c.us <- grow c.us;
    c.vs <- grow c.vs
  end;
  c.us.(c.len) <- u;
  c.vs.(c.len) <- v;
  c.len <- c.len + 1

let contents c = (Array.sub c.us 0 c.len, Array.sub c.vs 0 c.len)

(* The pushed edges, last pushed first. *)
let rev_contents c =
  let rev a = Array.init c.len (fun i -> a.(c.len - 1 - i)) in
  (rev c.us, rev c.vs)

(* Connect stragglers: take each component of the pushed edges' graph by
   its least node, in increasing order of that node, and join these
   representatives in a random order, one pushed edge per consecutive
   pair.  Joined nodes lie in different components, so no pushed edge
   duplicates an existing one. *)
let link_components ~rng ~n c =
  let uf = Union_find.create n in
  for i = 0 to c.len - 1 do
    ignore (Union_find.union uf c.us.(i) c.vs.(i))
  done;
  let ncomp = Union_find.count uf in
  if ncomp > 1 then begin
    let rep = Array.make ncomp (-1) and seen = Array.make n false in
    let next = ref 0 in
    for v = 0 to n - 1 do
      let r = Union_find.find uf v in
      if not seen.(r) then begin
        seen.(r) <- true;
        rep.(!next) <- v;
        incr next
      end
    done;
    let order = Array.init ncomp Fun.id in
    Rng.shuffle_ints rng order;
    for i = 1 to ncomp - 1 do
      let a = rep.(order.(i - 1)) and b = rep.(order.(i)) in
      add_edge c (min a b) (max a b)
    done
  end

let hidden_path ~rng ~n ~shortcuts =
  if n < 2 then invalid_arg "Generators.hidden_path";
  (* the path gets the n-1 smallest weights (shuffled) => it is the MST *)
  let light = Array.init (n - 1) (fun i -> i + 1) in
  Rng.shuffle_ints rng light;
  let order = Array.init n Fun.id in
  Rng.shuffle_ints rng order;
  let cap = n - 1 + max 0 shortcuts in
  let us = Array.make cap 0 and vs = Array.make cap 0 and ws = Array.make cap 0 in
  let len = ref 0 in
  let add a b w =
    us.(!len) <- a;
    vs.(!len) <- b;
    ws.(!len) <- w;
    incr len
  in
  let seen = Hashtbl.create shortcuts in
  let key a b = (min a b * n) + max a b in
  for i = 0 to n - 2 do
    add order.(i) order.(i + 1) light.(i);
    Hashtbl.replace seen (key order.(i) order.(i + 1)) ()
  done;
  let heavy = ref n in
  let attempts = ref 0 in
  while !len - (n - 1) < shortcuts && !attempts < 20 * shortcuts do
    incr attempts;
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b && not (Hashtbl.mem seen (key a b)) then begin
      Hashtbl.replace seen (key a b) ();
      add a b (!heavy + Rng.int rng (16 * n));
      (* keep weights distinct by spacing the base *)
      heavy := !heavy + (16 * n)
    end
  done;
  (* the edges in reverse order of addition *)
  let rev a = Array.init !len (fun i -> a.(!len - 1 - i)) in
  Graph.of_columns ~n (rev us) (rev vs) (rev ws)

let preferential_attachment ~rng ~n ~m =
  if n < 1 then invalid_arg "Generators.preferential_attachment";
  if m < 1 || (n > 1 && m >= n) then
    invalid_arg "Generators.preferential_attachment: need 1 <= m < n";
  (* Barabási–Albert by endpoint multiset: every accepted edge pushes both
     endpoints into the pool, so a uniform draw from the pool is a
     degree-proportional draw.  Each joining node is seeded once so early
     nodes with no edges yet remain reachable targets. *)
  let pool = ref (Array.make (max 16 (4 * n * m)) 0) in
  let pool_len = ref 0 in
  let push v =
    if !pool_len = Array.length !pool then begin
      let bigger = Array.make (2 * Array.length !pool) 0 in
      Array.blit !pool 0 bigger 0 !pool_len;
      pool := bigger
    end;
    !pool.(!pool_len) <- v;
    incr pool_len
  in
  push 0;
  let edges = growing (n * m) in
  for i = 1 to n - 1 do
    let wanted = min i m in
    let chosen = Hashtbl.create wanted in
    (* the pool only holds nodes < i, so every draw is a valid target;
       rejection only dedups, and at most [i] distinct targets exist *)
    while Hashtbl.length chosen < wanted do
      let t = !pool.(Rng.int rng !pool_len) in
      if not (Hashtbl.mem chosen t) then Hashtbl.replace chosen t ()
    done;
    let targets =
      Hashtbl.fold (fun t () acc -> t :: acc) chosen [] |> List.sort compare
    in
    List.iter
      (fun t ->
        add_edge edges t i;
        push t;
        push i)
      targets;
    push i
  done;
  let us, vs = contents edges in
  build ~rng ~n us vs

let reweight ~rng g =
  let ws = distinct_weights ~rng (Graph.m g) in
  Graph.of_columns ~n:(Graph.n g) (Array.copy (Graph.lo g)) (Array.copy (Graph.hi g)) ws

(* The [n - 1] edges [(parent i, i + 1)] in order of [i]. *)
let tree_by_parent ~rng n parent =
  build ~rng ~n (Array.init (n - 1) parent) (Array.init (n - 1) (fun i -> i + 1))

let path ~rng n =
  if n < 1 then invalid_arg "Generators.path";
  tree_by_parent ~rng n Fun.id

let star ~rng n =
  if n < 1 then invalid_arg "Generators.star";
  tree_by_parent ~rng n (fun _ -> 0)

let binary_tree ~rng n =
  if n < 1 then invalid_arg "Generators.binary_tree";
  tree_by_parent ~rng n (fun i -> i / 2)

let caterpillar ~rng ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Generators.caterpillar";
  let n = spine * (legs + 1) in
  (* the spine path, then each spine node's legs in spine order *)
  tree_by_parent ~rng n (fun i ->
      if i < spine - 1 then i else (i - (spine - 1)) / max 1 legs)

let broom ~rng ~handle ~bristles =
  if handle < 1 || bristles < 0 then invalid_arg "Generators.broom";
  let n = handle + bristles in
  (* the handle path, then the bristles on its last node *)
  tree_by_parent ~rng n (fun i -> if i < handle - 1 then i else handle - 1)

let random_tree ~rng n =
  if n < 1 then invalid_arg "Generators.random_tree";
  if n <= 2 then tree_by_parent ~rng n Fun.id
  else begin
    (* Decode a uniformly random Prüfer sequence.  Edge 0 joins the last
       two leaves; the leaf removed at step [i] is edge [n - 2 - i]. *)
    let seq = Array.init (n - 2) (fun _ -> Rng.int rng n) in
    let degree = Array.make n 1 in
    Array.iter (fun v -> degree.(v) <- degree.(v) + 1) seq;
    let module IntSet = Set.Make (Int) in
    let leaves = ref IntSet.empty in
    for v = 0 to n - 1 do
      if degree.(v) = 1 then leaves := IntSet.add v !leaves
    done;
    let us = Array.make (n - 1) 0 and vs = Array.make (n - 1) 0 in
    Array.iteri
      (fun i v ->
        let leaf = IntSet.min_elt !leaves in
        leaves := IntSet.remove leaf !leaves;
        us.(n - 2 - i) <- leaf;
        vs.(n - 2 - i) <- v;
        degree.(v) <- degree.(v) - 1;
        if degree.(v) = 1 then leaves := IntSet.add v !leaves)
      seq;
    us.(0) <- IntSet.min_elt !leaves;
    vs.(0) <- IntSet.max_elt !leaves;
    build ~rng ~n us vs
  end

let random_attachment_tree ~rng n =
  if n < 1 then invalid_arg "Generators.random_attachment_tree";
  tree_by_parent ~rng n (fun i -> Rng.int rng (i + 1))

let cycle ~rng n =
  if n < 3 then invalid_arg "Generators.cycle";
  build ~rng ~n (Array.init n Fun.id) (Array.init n (fun i -> (i + 1) mod n))

(* Preallocated columns filled from the back, so the first edge written
   gets the highest id.  Edge ids are part of every generator's pinned
   output (they order the weight draw), and the families below number
   their edges in reverse order of emission. *)
type back = { bus : int array; bvs : int array; mutable next : int }

let back m = { bus = Array.make m 0; bvs = Array.make m 0; next = m }

let add_back b u v =
  b.next <- b.next - 1;
  b.bus.(b.next) <- u;
  b.bvs.(b.next) <- v

(* All pairs [base + u < base + v] of a [size]-clique, [u] major. *)
let add_clique b ~base size =
  for u = 0 to size - 1 do
    for v = u + 1 to size - 1 do
      add_back b (base + u) (base + v)
    done
  done

let build_back ~rng ~n b =
  assert (b.next = 0);
  build ~rng ~n b.bus b.bvs

let complete ~rng n =
  if n < 1 then invalid_arg "Generators.complete";
  let b = back (n * (n - 1) / 2) in
  add_clique b ~base:0 n;
  build_back ~rng ~n b

(* Row-major scan: each node's right then down edge, or the wrap-around
   edge at the last column / row of a torus. *)
let grid_edges ~rows ~cols ~wrap =
  let wrap_c = wrap && cols > 2 and wrap_r = wrap && rows > 2 in
  let m =
    (rows * (cols - 1)) + ((rows - 1) * cols)
    + (if wrap_c then rows else 0)
    + if wrap_r then cols else 0
  in
  let b = back m in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then add_back b (id r c) (id r (c + 1))
      else if wrap_c then add_back b (id r 0) (id r (cols - 1));
      if r + 1 < rows then add_back b (id r c) (id (r + 1) c)
      else if wrap_r then add_back b (id 0 c) (id (rows - 1) c)
    done
  done;
  b

let grid ~rng ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid";
  build_back ~rng ~n:(rows * cols) (grid_edges ~rows ~cols ~wrap:false)

let torus ~rng ~rows ~cols =
  if rows < 3 || cols < 3 then invalid_arg "Generators.torus";
  build_back ~rng ~n:(rows * cols) (grid_edges ~rows ~cols ~wrap:true)

let ladder ~rng len =
  if len < 1 then invalid_arg "Generators.ladder";
  grid ~rng ~rows:2 ~cols:len

let gnp_connected ~rng ~n ~p =
  if n < 1 then invalid_arg "Generators.gnp_connected";
  (* each pair is drawn once, so no edge repeats *)
  let c = growing n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < p then add_edge c u v
    done
  done;
  link_components ~rng ~n c;
  (* the edges last-drawn first *)
  let us, vs = rev_contents c in
  build ~rng ~n us vs

(* Random geometric graph on the unit square: nodes within [radius] are
   adjacent.  A cell grid of side at least [radius] makes neighbor search
   O(n log n) for constant expected degree, so million-node instances are
   cheap — the spatial workload the sharded engine's contiguous partitions
   like least (edges ignore id order), complementing the grid family.  Only
   occupied cells are stored (sorted by cell id, found by binary search),
   so a tiny radius costs no memory; the cell count per side is capped so
   that cell ids fit in an [int], which only widens cells. *)
let max_cells = 1 lsl 30

let random_geometric ~rng ~n ~radius =
  if n < 1 || radius <= 0.0 || radius > 1.0 then
    invalid_arg "Generators.random_geometric";
  let xs = Array.init n (fun _ -> Rng.float rng 1.0) in
  let ys = Array.init n (fun _ -> Rng.float rng 1.0) in
  let cells =
    if 1.0 /. radius >= float_of_int max_cells then max_cells
    else max 1 (int_of_float (1.0 /. radius))
  in
  let cell x = min (cells - 1) (int_of_float (x *. float_of_int cells)) in
  let cell_of = Array.init n (fun v -> (cell ys.(v) * cells) + cell xs.(v)) in
  (* nodes grouped by cell id, ascending: the occupied cells in (cy, cx)
     order, each a segment [start.(s) .. start.(s+1) - 1] of [by_cell],
     ascending in node id *)
  let by_cell = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare cell_of.(a) cell_of.(b)) by_cell;
  let opens i = i = 0 || cell_of.(by_cell.(i - 1)) <> cell_of.(by_cell.(i)) in
  let nseg = ref 0 in
  for i = 0 to n - 1 do
    if opens i then incr nseg
  done;
  let nseg = !nseg in
  let start = Array.make (nseg + 1) n and seg_cell = Array.make nseg 0 in
  let s = ref 0 in
  for i = 0 to n - 1 do
    if opens i then begin
      start.(!s) <- i;
      seg_cell.(!s) <- cell_of.(by_cell.(i));
      incr s
    end
  done;
  let find_seg id =
    let lo = ref 0 and hi = ref nseg in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if seg_cell.(mid) < id then lo := mid + 1 else hi := mid
    done;
    if !lo < nseg && seg_cell.(!lo) = id then !lo else -1
  in
  let r2 = radius *. radius in
  let c = growing n in
  let consider u v =
    let u = min u v and v = max u v in
    let dx = xs.(u) -. xs.(v) and dy = ys.(u) -. ys.(v) in
    if (dx *. dx) +. (dy *. dy) <= r2 then add_edge c u v
  in
  let forward = [| (0, 1); (1, -1); (1, 0); (1, 1) |] in
  let nbr_seg = Array.make 4 (-1) in
  for s = 0 to nseg - 1 do
    let cy = seg_cell.(s) / cells and cx = seg_cell.(s) mod cells in
    Array.iteri
      (fun i (dy, dx) ->
        let ny = cy + dy and nx = cx + dx in
        nbr_seg.(i) <-
          (if ny >= 0 && ny < cells && nx >= 0 && nx < cells then find_seg ((ny * cells) + nx)
           else -1))
      forward;
    (* Within a cell, nodes in descending id order.  Each same-cell pair
       is emitted once, when the second of its two nodes is scanned; then
       come the pairs with the four forward neighbor cells, so each
       unordered cell pair is scanned once.  This order fixes the edge
       ids, which the generator digests pin. *)
    for i = start.(s + 1) - 1 downto start.(s) do
      let u = by_cell.(i) in
      for j = start.(s + 1) - 1 downto i + 1 do
        consider u by_cell.(j)
      done;
      Array.iter
        (fun t ->
          if t >= 0 then
            for j = start.(t + 1) - 1 downto start.(t) do
              consider u by_cell.(j)
            done)
        nbr_seg
    done
  done;
  let found = c.len in
  link_components ~rng ~n c;
  (* the straggler links, last first, then the geometric edges in scan
     order *)
  let m = c.len in
  let order i = if i < m - found then m - 1 - i else i - (m - found) in
  build ~rng ~n (Array.init m (fun i -> c.us.(order i))) (Array.init m (fun i -> c.vs.(order i)))

(* Longest-processing-time bin packing of nodes onto [shards] bins by
   degree weight: heaviest node first, always onto the lightest bin.  The
   classical LPT bound makes the heaviest bin at most (4/3 - 1/(3 shards))
   of optimal, and optimal is at least max(total/shards, heaviest node),
   so shard loads stay balanced even on power-law-ish degree sequences
   where contiguous ranges collapse onto one hub.  Deterministic: ties
   break by node id and lowest shard id. *)
let shard_partition g ~shards =
  if shards < 1 then invalid_arg "Generators.shard_partition";
  let n = Graph.n g in
  let shard_of = Array.make (max 1 n) 0 in
  if shards > 1 && n > 0 then begin
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let da = Graph.degree g a and db = Graph.degree g b in
        if da <> db then compare db da else compare a b)
      order;
    let load = Array.make shards 0 in
    Array.iter
      (fun v ->
        let best = ref 0 in
        for s = 1 to shards - 1 do
          if load.(s) < load.(!best) then best := s
        done;
        shard_of.(v) <- !best;
        load.(!best) <- load.(!best) + Graph.degree g v + 1)
      order
  end;
  shard_of

let lollipop ~rng ~clique ~tail =
  if clique < 1 || tail < 0 then invalid_arg "Generators.lollipop";
  let n = clique + tail in
  let b = back ((clique * (clique - 1) / 2) + tail) in
  add_clique b ~base:0 clique;
  for i = 0 to tail - 1 do
    let prev = if i = 0 then clique - 1 else clique + i - 1 in
    add_back b prev (clique + i)
  done;
  build_back ~rng ~n b

let barbell ~rng ~clique ~bridge =
  if clique < 1 || bridge < 0 then invalid_arg "Generators.barbell";
  let n = (2 * clique) + bridge in
  let b = back ((clique * (clique - 1)) + bridge + 1) in
  add_clique b ~base:0 clique;
  add_clique b ~base:(clique + bridge) clique;
  (* bridge path: clique-1 -> bridge nodes -> clique+bridge *)
  let left_anchor = clique - 1 and right_anchor = clique + bridge in
  if bridge = 0 then add_back b left_anchor right_anchor
  else begin
    add_back b left_anchor clique;
    for i = 0 to bridge - 2 do
      add_back b (clique + i) (clique + i + 1)
    done;
    add_back b (clique + bridge - 1) right_anchor
  end;
  build_back ~rng ~n b

(* Union of [d/2] uniformly random Hamiltonian cycles (plus, for odd d, a
   random perfect matching).  Unlike the pairing model this never creates
   self-loops and collides only when two cycles share an edge, so the
   rejection rate stays tiny even for small n; a collision rejects the
   attempt, so the graph is simple. *)
let random_regular ~rng ~n ~d =
  if n * d mod 2 <> 0 || d >= n || d < 1 then invalid_arg "Generators.random_regular";
  if d >= 2 && n < 3 then invalid_arg "Generators.random_regular: n too small";
  let max_attempts = 1000 in
  let attempt () =
    let seen = Hashtbl.create (n * d) in
    let c = growing (n * d / 2) in
    let ok = ref true in
    let add u v =
      let u = min u v and v = max u v in
      if u = v || Hashtbl.mem seen ((u * n) + v) then ok := false
      else begin
        Hashtbl.add seen ((u * n) + v) ();
        add_edge c u v
      end
    in
    for _c = 1 to d / 2 do
      let perm = Array.init n Fun.id in
      Rng.shuffle_ints rng perm;
      for i = 0 to n - 1 do
        add perm.(i) perm.((i + 1) mod n)
      done
    done;
    if d mod 2 = 1 then begin
      let perm = Array.init n Fun.id in
      Rng.shuffle_ints rng perm;
      let i = ref 0 in
      while !i + 1 < n do
        add perm.(!i) perm.(!i + 1);
        i := !i + 2
      done
    end;
    (* the edges last-added first *)
    if !ok then Some (rev_contents c) else None
  in
  let rec try_build remaining =
    if remaining = 0 then
      invalid_arg "Generators.random_regular: too many rejections; lower d"
    else
      match attempt () with
      | Some (us, vs) ->
        let g = build ~rng ~n us vs in
        if Graph.is_connected g then g else try_build (remaining - 1)
      | None -> try_build (remaining - 1)
  in
  try_build max_attempts
