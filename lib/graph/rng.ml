(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field:
   a field write boxes a fresh [int64] on every draw, while
   [Bytes.get/set_int64_le] read and write it unboxed.  [draw] keeps the
   state in a local across rejection retries and writes it back once, so
   [int] and [shuffle] allocate nothing per draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let int64 t = next t
let split t = of_state (next t)

(* Rejection sampling to avoid modulo bias: a raw draw [r] is kept when
   [r - r mod bound <= max_int - bound], so every residue is equally
   likely.  Advances the state held in [t] and returns the value. *)
let[@inline] draw t bound =
  let bound64 = Int64.of_int bound in
  let limit = Int64.sub (Int64.sub Int64.max_int bound64) Int64.one in
  let state = ref (Bytes.get_int64_le t 0) in
  let result = ref (-1) in
  while !result < 0 do
    state := Int64.add !state golden_gamma;
    let r = Int64.logand (mix64 !state) Int64.max_int in
    let v = Int64.rem r bound64 in
    if Int64.sub r v <= limit then result := Int64.to_int v
  done;
  Bytes.set_int64_le t 0 !state;
  !result

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw t bound

let float t bound =
  let r = Int64.shift_right_logical (next t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = draw t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffle_ints t (a : int array) =
  for i = Array.length a - 1 downto 1 do
    let j = draw t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
