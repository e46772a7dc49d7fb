(* Orthogonal Vectors (OVP) [21]: given m binary vectors of dimension D,
   decide whether two of them have dot product 0.  Source problem of the
   SETH-based subquadratic hardness of multi-constraint partitioning
   (Theorem 6.4).

   Vectors are packed into 62-bit words, so a pairwise test costs
   O(D / 62); the solver is the straightforward quadratic scan the SETH
   literature conjectures to be essentially optimal for D = omega(log m). *)

type instance = {
  m : int;
  d : int;
  coords : bool array array; (* m x d *)
  packed : int array array; (* m x ceil(d / 62) *)
}

let bits_per_word = 62

let pack coords d =
  let words = (d + bits_per_word - 1) / bits_per_word in
  Array.map
    (fun row ->
      let out = Array.make words 0 in
      Array.iteri
        (fun j b ->
          if b then
            out.(j / bits_per_word) <-
              out.(j / bits_per_word) lor (1 lsl (j mod bits_per_word)))
        row;
      out)
    coords

let create coords =
  let m = Array.length coords in
  if m = 0 then invalid_arg "Ovp.create: no vectors";
  let d = Array.length coords.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> d then invalid_arg "Ovp.create: ragged rows")
    coords;
  { m; d; coords = Array.map Array.copy coords; packed = pack coords d }

let coordinate t i j = t.coords.(i).(j)
let dimensions t = (t.m, t.d)

let orthogonal t i j =
  let a = t.packed.(i) and b = t.packed.(j) in
  let rec go w = w >= Array.length a || (a.(w) land b.(w) = 0 && go (w + 1)) in
  go 0

let find_pair t =
  let answer = ref None in
  let i = ref 0 in
  while !answer = None && !i < t.m - 1 do
    let j = ref (!i + 1) in
    while !answer = None && !j < t.m do
      if orthogonal t !i !j then answer := Some (!i, !j);
      incr j
    done;
    incr i
  done;
  !answer

let has_pair t = find_pair t <> None

(* Random instance, each coordinate set with probability 1/2; [plant]
   forces a yes-instance by inserting an orthogonal pair (complementary
   supports on disjoint halves). *)
let random ?(plant = false) rng ~m ~d =
  let coords =
    Array.init m (fun _ ->
        Array.init d (fun _ -> Support.Rng.bernoulli rng 0.5))
  in
  if plant && m >= 2 then begin
    let a = Array.init d (fun j -> j mod 2 = 0 && Support.Rng.bool rng) in
    let b = Array.init d (fun j -> j mod 2 = 1 && Support.Rng.bool rng) in
    coords.(0) <- a;
    coords.(1) <- b
  end;
  create coords
