(* Nearest-rank percentile over a sorted array: the smallest sample such
   that at least q of the distribution is at or below it.  Exact for
   small sample sets, no interpolation to invent latencies nobody saw. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (q *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end
