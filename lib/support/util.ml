(* Small shared helpers. *)

let ceil_div a b =
  if b <= 0 then invalid_arg "Util.ceil_div: non-positive divisor";
  if a >= 0 then (a + b - 1) / b else a / b

let sum_array a = Array.fold_left ( + ) 0 a

let max_array a =
  if Array.length a = 0 then invalid_arg "Util.max_array: empty";
  Array.fold_left max a.(0) a

let min_array a =
  if Array.length a = 0 then invalid_arg "Util.min_array: empty";
  Array.fold_left min a.(0) a

let rec pow base exp =
  if exp < 0 then invalid_arg "Util.pow: negative exponent"
  else if exp = 0 then 1
  else begin
    let half = pow base (exp / 2) in
    if exp mod 2 = 0 then half * half else half * half * base
  end

let rec choose n k =
  if k < 0 || k > n then 0
  else if k = 0 || k = n then 1
  else if k > n - k then choose n (n - k)
  else choose (n - 1) (k - 1) * n / k

(* Monotonic wall clock in nanoseconds.  CLOCK_MONOTONIC via the bechamel
   stub ([@@noalloc], so hot-path instrumentation never allocates); the
   Sys.time fallback (CPU seconds, not wall time) only exists for exotic
   platforms where the stub returns 0. *)
let monotonic_ns () =
  let t = Monotonic_clock.now () in
  if Int64.compare t 0L > 0 then t
  else Int64.of_float (Sys.time () *. 1e9)

let seconds_of_ns ns = Int64.to_float ns /. 1e9

(* Iterate over all k-subsets of [0, n) as sorted arrays. *)
let iter_subsets ~n ~k f =
  if k < 0 || k > n then ()
  else begin
    let sel = Array.init k (fun i -> i) in
    let rec next () =
      f (Array.copy sel);
      (* Advance to the lexicographically next combination. *)
      let rec bump i =
        if i < 0 then false
        else if sel.(i) < n - k + i then begin
          sel.(i) <- sel.(i) + 1;
          for j = i + 1 to k - 1 do
            sel.(j) <- sel.(j - 1) + 1
          done;
          true
        end
        else bump (i - 1)
      in
      if bump (k - 1) then next ()
    in
    if k = 0 then f [||] else next ()
  end

(* Iterate over all assignments [0,base)^len, presented as an int array that
   must not be retained across calls. *)
let iter_tuples ~base ~len f =
  if base <= 0 then invalid_arg "Util.iter_tuples: non-positive base";
  let tuple = Array.make len 0 in
  let rec go pos = if pos = len then f tuple
    else
      for v = 0 to base - 1 do
        tuple.(pos) <- v;
        go (pos + 1)
      done
  in
  go 0

(* In-place ascending sort of the slice [pos, pos+len) of an int array,
   allocation-free (the CSR contraction kernel sorts every coarse edge's
   pin slice in one flat buffer): insertion sort for short slices, else
   sift-down heapsort — deterministic and O(len log len) worst case. *)
let sort_int_range a pos len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Util.sort_int_range: slice out of bounds";
  if len > 16 then begin
    let sift_down root size =
      let r = ref root in
      let continue = ref true in
      while !continue do
        let child = (2 * !r) + 1 in
        if child >= size then continue := false
        else begin
          let child =
            if child + 1 < size && a.(pos + child + 1) > a.(pos + child) then
              child + 1
            else child
          in
          if a.(pos + child) > a.(pos + !r) then begin
            let tmp = a.(pos + !r) in
            a.(pos + !r) <- a.(pos + child);
            a.(pos + child) <- tmp;
            r := child
          end
          else continue := false
        end
      done
    in
    for root = (len / 2) - 1 downto 0 do
      sift_down root len
    done;
    for last = len - 1 downto 1 do
      let tmp = a.(pos) in
      a.(pos) <- a.(pos + last);
      a.(pos + last) <- tmp;
      sift_down 0 last
    done
  end
  else
    for i = pos + 1 to pos + len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= pos && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let list_init n f = List.init n f

let array_count p a =
  Array.fold_left (fun acc x -> if p x then acc + 1 else acc) 0 a
