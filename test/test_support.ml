(* Tests for the support library: RNG, DSU, bucket queues, growable
   vectors, and the combinatorial iterators. *)

open Support

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in inclusive range" true (v >= -5 && v <= 5)
  done

let test_rng_permutation () =
  let rng = Rng.create 3 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.create 11 in
  for _ = 1 to 50 do
    let s = Rng.sample_distinct rng ~n:20 ~k:7 in
    Alcotest.(check int) "size" 7 (Array.length s);
    for i = 1 to 6 do
      Alcotest.(check bool) "strictly increasing" true (s.(i) > s.(i - 1))
    done;
    Array.iter
      (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
      s
  done

let test_int_vec () =
  let v = Int_vec.create () in
  for i = 0 to 999 do
    Int_vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 1000 (Int_vec.length v);
  Alcotest.(check int) "get" (25 * 25) (Int_vec.get v 25);
  Int_vec.set v 25 7;
  Alcotest.(check int) "set" 7 (Int_vec.get v 25);
  Alcotest.(check int) "pop" (999 * 999) (Int_vec.pop v);
  Alcotest.(check int) "length after pop" 999 (Int_vec.length v);
  Int_vec.clear v;
  Alcotest.(check int) "cleared" 0 (Int_vec.length v);
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Int_vec.get: index out of bounds") (fun () ->
      ignore (Int_vec.get v 0))

let test_dsu () =
  let d = Dsu.create 10 in
  Alcotest.(check int) "initial components" 10 (Dsu.components d);
  Alcotest.(check bool) "union new" true (Dsu.union d 0 1);
  Alcotest.(check bool) "union redundant" false (Dsu.union d 1 0);
  ignore (Dsu.union d 2 3);
  ignore (Dsu.union d 0 3);
  Alcotest.(check bool) "same" true (Dsu.same d 1 2);
  Alcotest.(check bool) "not same" false (Dsu.same d 1 5);
  Alcotest.(check int) "component size" 4 (Dsu.component_size d 1);
  Alcotest.(check int) "components" 7 (Dsu.components d);
  let label, count = Dsu.labeling d in
  Alcotest.(check int) "label count" 7 count;
  Alcotest.(check int) "same label" label.(0) label.(3);
  Alcotest.(check bool) "different label" true (label.(0) <> label.(5))

let test_bucket_queue_basic () =
  let q = Bucket_queue.create ~min_priority:(-5) ~max_priority:5 10 in
  Alcotest.(check bool) "empty" true (Bucket_queue.is_empty q);
  Bucket_queue.insert q 0 3;
  Bucket_queue.insert q 1 (-2);
  Bucket_queue.insert q 2 5;
  Bucket_queue.insert q 3 5;
  Alcotest.(check int) "size" 4 (Bucket_queue.size q);
  (match Bucket_queue.pop_max q with
  | Some (item, p) ->
      Alcotest.(check int) "max priority" 5 p;
      Alcotest.(check bool) "max item" true (item = 2 || item = 3);
      Bucket_queue.remove q (if item = 2 then 3 else 2)
  | None -> Alcotest.fail "expected an item");
  (match Bucket_queue.pop_max q with
  | Some (0, 3) -> ()
  | _ -> Alcotest.fail "expected (0, 3)");
  Bucket_queue.update q 1 4;
  Alcotest.(check int) "updated priority" 4 (Bucket_queue.priority q 1)

(* clear + the capacity/priority_range accessors back the workspace's
   queue-reuse decision (Workspace.queue recycles iff both suffice). *)
let test_bucket_queue_clear () =
  let q = Bucket_queue.create ~min_priority:(-5) ~max_priority:5 10 in
  Alcotest.(check int) "capacity" 10 (Bucket_queue.capacity q);
  Alcotest.(check (pair int int)) "priority range" (-5, 5)
    (Bucket_queue.priority_range q);
  Bucket_queue.insert q 0 3;
  Bucket_queue.insert q 7 (-5);
  Bucket_queue.clear q;
  Alcotest.(check bool) "cleared" true (Bucket_queue.is_empty q);
  Alcotest.(check int) "size 0" 0 (Bucket_queue.size q);
  Alcotest.(check bool) "cleared items are absent" false
    (Bucket_queue.mem q 0);
  (* The cleared queue is fully reusable, including for old items. *)
  Bucket_queue.insert q 0 (-1);
  Bucket_queue.insert q 9 4;
  (match Bucket_queue.pop_max q with
  | Some (9, 4) -> ()
  | _ -> Alcotest.fail "expected (9, 4)");
  match Bucket_queue.pop_max q with
  | Some (0, -1) -> ()
  | _ -> Alcotest.fail "expected (0, -1)"

let test_bucket_queue_random_vs_reference () =
  (* Compare against a naive reference implementation. *)
  let rng = Rng.create 99 in
  let n = 40 in
  let q = Bucket_queue.create ~min_priority:(-20) ~max_priority:20 n in
  let reference = Hashtbl.create 64 in
  for _ = 1 to 3000 do
    let item = Rng.int rng n in
    match Rng.int rng 3 with
    | 0 ->
        let p = Rng.int_in_range rng ~lo:(-20) ~hi:20 in
        Bucket_queue.update q item p;
        Hashtbl.replace reference item p
    | 1 ->
        if Hashtbl.mem reference item then begin
          Bucket_queue.remove q item;
          Hashtbl.remove reference item
        end
    | _ -> (
        let expected =
          Hashtbl.fold (fun _ p acc -> max p acc) reference min_int
        in
        match Bucket_queue.max_item q with
        | None -> Alcotest.(check int) "both empty" 0 (Hashtbl.length reference)
        | Some it ->
            Alcotest.(check int) "max priority agrees" expected
              (Bucket_queue.priority q it))
  done;
  Alcotest.(check int) "sizes agree" (Hashtbl.length reference)
    (Bucket_queue.size q)

let test_util_basics () =
  Alcotest.(check int) "ceil_div exact" 4 (Util.ceil_div 12 3);
  Alcotest.(check int) "ceil_div up" 5 (Util.ceil_div 13 3);
  Alcotest.(check int) "pow" 243 (Util.pow 3 5);
  Alcotest.(check int) "pow zero" 1 (Util.pow 7 0);
  Alcotest.(check int) "choose" 10 (Util.choose 5 2);
  Alcotest.(check int) "choose edge" 1 (Util.choose 5 0);
  Alcotest.(check int) "choose out of range" 0 (Util.choose 3 5);
  Alcotest.(check int) "sum" 6 (Util.sum_array [| 1; 2; 3 |]);
  Alcotest.(check int) "max" 9 (Util.max_array [| 3; 9; 1 |]);
  Alcotest.(check int) "min" 1 (Util.min_array [| 3; 9; 1 |])

let test_iter_subsets () =
  let count = ref 0 in
  Util.iter_subsets ~n:6 ~k:3 (fun s ->
      incr count;
      Alcotest.(check int) "subset size" 3 (Array.length s);
      for i = 1 to 2 do
        Alcotest.(check bool) "sorted" true (s.(i) > s.(i - 1))
      done);
  Alcotest.(check int) "C(6,3)" 20 !count;
  let count0 = ref 0 in
  Util.iter_subsets ~n:4 ~k:0 (fun s ->
      incr count0;
      Alcotest.(check int) "empty subset" 0 (Array.length s));
  Alcotest.(check int) "C(4,0)" 1 !count0

let test_iter_tuples () =
  let count = ref 0 in
  Util.iter_tuples ~base:3 ~len:4 (fun _ -> incr count);
  Alcotest.(check int) "3^4 tuples" 81 !count

let qcheck_subsets_count =
  QCheck.Test.make ~name:"iter_subsets visits C(n,k) distinct subsets"
    ~count:50
    QCheck.(pair (int_range 0 8) (int_range 0 8))
    (fun (n, k) ->
      let seen = Hashtbl.create 16 in
      Util.iter_subsets ~n ~k (fun s -> Hashtbl.replace seen (Array.to_list s) ());
      Hashtbl.length seen = Util.choose n k)

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "rng sample_distinct" `Quick test_rng_sample_distinct;
    Alcotest.test_case "int_vec" `Quick test_int_vec;
    Alcotest.test_case "dsu" `Quick test_dsu;
    Alcotest.test_case "bucket queue basics" `Quick test_bucket_queue_basic;
    Alcotest.test_case "bucket queue clear and reuse" `Quick
      test_bucket_queue_clear;
    Alcotest.test_case "bucket queue vs reference" `Quick
      test_bucket_queue_random_vs_reference;
    Alcotest.test_case "util basics" `Quick test_util_basics;
    Alcotest.test_case "iter_subsets" `Quick test_iter_subsets;
    Alcotest.test_case "iter_tuples" `Quick test_iter_tuples;
    QCheck_alcotest.to_alcotest qcheck_subsets_count;
  ]
