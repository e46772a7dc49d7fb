(* Smoke tests for the experiment harness: the cheap experiments run end to
   end without raising (their stdout goes to the alcotest log). *)

let run id () =
  match
    List.find_opt (fun (i, _, _) -> i = id) Experiments.all
  with
  | Some (_, _, f) -> f ()
  | None -> Alcotest.failf "unknown experiment %s" id

let registry_consistent () =
  Alcotest.(check int) "16 experiments registered" 16
    (List.length Experiments.all);
  List.iter
    (fun (id, what, _) ->
      Alcotest.(check bool) "id format" true (id.[0] = 'E');
      Alcotest.(check bool) "description non-empty" true (what <> ""))
    Experiments.all

let suite =
  [
    Alcotest.test_case "registry" `Quick registry_consistent;
    Alcotest.test_case "E1 smoke" `Slow (run "E1");
    Alcotest.test_case "E3 smoke" `Slow (run "E3");
    Alcotest.test_case "E8 smoke" `Slow (run "E8");
    Alcotest.test_case "E10 smoke" `Slow (run "E10");
    Alcotest.test_case "E14 smoke" `Slow (run "E14");
  ]
