(* Growable array of ints, used by the CSR builders and solver scratch
   space.  Amortized O(1) push; no boxing. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 8 0; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let ensure_capacity t n =
  if n > Array.length t.data then begin
    let cap = ref (max 1 (Array.length t.data)) in
    while !cap < n do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end

let push t x =
  ensure_capacity t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Int_vec.set: index out of bounds";
  t.data.(i) <- x

let pop t =
  if t.len = 0 then invalid_arg "Int_vec.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let to_array t = Array.sub t.data 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let fold f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc
