(* The strict trace/2 loader and the analytics over it.  [load] decodes
   every line through the Schema codec and checks the span forest, so
   `hypartition trace` (which validates through it) and `hypartition
   report` accept and reject the same files.  The analytics turn a
   loaded trace into the tables a human asks for first — where did the
   time go (per-phase wall and self time), what was the longest
   dependency chain per job, which individual spans dominated, what did
   the GC do — plus folded-stack output consumable by standard
   flamegraph tooling.

   This module does not depend on the Obs main module (the library is
   wrapped; siblings share Json and Schema instead), so the main module
   can re-export it. *)

type phase_row = {
  ph_path : string;
  ph_count : int;
  ph_total_ns : int64;
  ph_self_ns : int64;
}

type t = {
  spans : Schema.span list;
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Schema.histogram_stat) list;
  provenance : (string * Json.t) list list;
}

(* ------------------------------------------------------------------ *)
(* The strict loader *)

let ( let* ) = Result.bind

(* Decode every non-blank line, numbered from 1 as in the file; the
   first must be the meta record and no other may be. *)
let decode_lines content =
  let rec go acc = function
    | [] -> if List.is_empty acc then Error "empty trace" else Ok (List.rev acc)
    | (lineno, line) :: rest -> (
        let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
        match Schema.of_line line with
        | Error msg -> fail msg
        | Ok r ->
            let is_meta = match r with Schema.Meta _ -> true | _ -> false in
            if is_meta = List.is_empty acc then go ((lineno, r) :: acc) rest
            else if is_meta then fail "meta record after the first line"
            else fail "first record is not meta")
  in
  go []
    (List.filter
       (fun (_, l) -> String.trim l <> "")
       (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' content)))

(* Span ids are unique and every parent is present, one level up, with
   a path that is a proper prefix: the spans form a forest, which the
   derived views rely on. *)
let check_forest (spans : (int * Schema.span) list) =
  let fail lineno (s : Schema.span) fmt =
    Printf.ksprintf
      (fun msg ->
        Error (Printf.sprintf "span %d (line %d): %s" s.id lineno msg))
      fmt
  in
  (* The first error of [f] over the spans, in file order. *)
  let each f =
    List.fold_left
      (fun acc span -> Result.bind acc (fun () -> f span))
      (Ok ()) spans
  in
  let by_id = Hashtbl.create 64 in
  let* () =
    each (fun (lineno, (s : Schema.span)) ->
        match Hashtbl.find_opt by_id s.id with
        | Some (first, _) -> fail lineno s "id already used on line %d" first
        | None -> Ok (Hashtbl.replace by_id s.id (lineno, s)))
  in
  each (fun (lineno, (s : Schema.span)) ->
      match Option.map (fun p -> (p, Hashtbl.find_opt by_id p)) s.parent with
      | None -> Ok ()
      | Some (p, None) -> fail lineno s "missing parent %d" p
      | Some (p, Some (_, (parent : Schema.span))) ->
          if s.depth <> parent.depth + 1 then
            fail lineno s "depth %d under parent %d of depth %d" s.depth p
              parent.depth
          else if not (String.starts_with ~prefix:(parent.path ^ "/") s.path)
          then
            fail lineno s "path %S not under parent %d's %S" s.path p
              parent.path
          else Ok ())

let load_string content =
  let* records = decode_lines content in
  let spans =
    List.filter_map
      (function lineno, Schema.Span s -> Some (lineno, s) | _ -> None)
      records
  in
  let* () = check_forest spans in
  let pick f = List.filter_map (fun (_, r) -> f r) records in
  Ok
    {
      spans = List.map snd spans;
      counters =
        pick (function
          | Schema.Counter { name; value } -> Some (name, value)
          | _ -> None);
      gauges =
        pick (function
          | Schema.Gauge { name; value } -> Some (name, value)
          | _ -> None);
      histograms =
        pick (function
          | Schema.Histogram { name; stat } -> Some (name, stat)
          | _ -> None);
      provenance = pick (function Schema.Provenance f -> Some f | _ -> None);
    }

let load path =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | content -> load_string content
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Derived views *)

(* Direct children by parent id, each list in reverse file order. *)
let children spans =
  let tbl : (int, Schema.span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Schema.span) ->
      Option.iter
        (fun p ->
          let siblings = Option.value ~default:[] (Hashtbl.find_opt tbl p) in
          Hashtbl.replace tbl p (s :: siblings))
        s.parent)
    spans;
  tbl

let phase_rows tr =
  let kids = children tr.spans in
  let agg : (string, int * int64 * int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Schema.span) ->
      let kids_ns =
        List.fold_left
          (fun acc (k : Schema.span) -> Int64.add acc k.dur_ns)
          0L
          (Option.value ~default:[] (Hashtbl.find_opt kids s.id))
      in
      let self = Int64.sub s.dur_ns kids_ns in
      let self = if Int64.compare self 0L < 0 then 0L else self in
      let count, total, self_acc =
        match Hashtbl.find_opt agg s.path with
        | Some row -> row
        | None -> (0, 0L, 0L)
      in
      Hashtbl.replace agg s.path
        (count + 1, Int64.add total s.dur_ns, Int64.add self_acc self))
    tr.spans;
  Hashtbl.fold
    (fun path (count, total, self) acc ->
      { ph_path = path; ph_count = count; ph_total_ns = total; ph_self_ns = self }
      :: acc)
    agg []
  |> List.sort (fun a b -> String.compare a.ph_path b.ph_path)

let fold_path path = String.map (fun c -> if c = '/' then ';' else c) path

let folded tr =
  String.concat ""
    (List.filter_map
       (fun r ->
         let self = Int64.to_int r.ph_self_ns in
         if self <= 0 then None
         else Some (Printf.sprintf "%s %d\n" (fold_path r.ph_path) self))
       (phase_rows tr))

(* Canonical span-tree rendering, modulo ids and timestamps: node name
   plus trace id, children sorted by their own canonical form.  Two runs
   of the same manifest must produce equal strings whatever the worker
   interleaving was.  The loader guarantees a forest, so every span is
   reached exactly once from a root. *)
let structure tr =
  let kids = children tr.spans in
  let rec canon (s : Schema.span) =
    let label =
      match s.trace with Some t -> s.name ^ "[" ^ t ^ "]" | None -> s.name
    in
    match Hashtbl.find_opt kids s.id with
    | None -> label
    | Some l ->
        let kids = List.sort String.compare (List.map canon l) in
        label ^ "(" ^ String.concat "," kids ^ ")"
  in
  tr.spans
  |> List.filter (fun (s : Schema.span) -> Option.is_none s.parent)
  |> List.map canon
  |> List.sort String.compare
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_ns ppf ns =
  let f = Int64.to_float ns in
  if f >= 1e9 then Fmt.pf ppf "%8.2f s " (f /. 1e9)
  else if f >= 1e6 then Fmt.pf ppf "%8.2f ms" (f /. 1e6)
  else if f >= 1e3 then Fmt.pf ppf "%8.2f us" (f /. 1e3)
  else Fmt.pf ppf "%8.0f ns" f

let pp_provenance ppf fields =
  if fields <> [] then begin
    Fmt.pf ppf "== provenance ==@.";
    List.iter
      (fun (k, v) ->
        let s =
          match v with Json.Str s -> s | other -> Json.to_string other
        in
        Fmt.pf ppf "  %-16s %s@." k s)
      fields
  end

let pp_phase_table ppf rows =
  if rows <> [] then begin
    let grand_self =
      List.fold_left (fun acc r -> Int64.add acc r.ph_self_ns) 0L rows
    in
    Fmt.pf ppf "%-52s %7s %11s %11s %6s@." "phase" "count" "total" "self"
      "self%";
    List.iter
      (fun r ->
        let pct =
          if Int64.compare grand_self 0L > 0 then
            100.0 *. Int64.to_float r.ph_self_ns /. Int64.to_float grand_self
          else 0.0
        in
        let depth =
          String.fold_left
            (fun d c -> if c = '/' then d + 1 else d)
            0 r.ph_path
        in
        let name =
          match String.rindex_opt r.ph_path '/' with
          | Some i ->
              String.sub r.ph_path (i + 1) (String.length r.ph_path - i - 1)
          | None -> r.ph_path
        in
        Fmt.pf ppf "%-52s %7d %a %a %5.1f%%@."
          (String.make (2 * depth) ' ' ^ name)
          r.ph_count pp_ns r.ph_total_ns pp_ns r.ph_self_ns pct)
      rows
  end

let pp_gc ppf gauges =
  let gc = List.filter (fun (k, _) -> String.length k >= 3 && String.sub k 0 3 = "gc.") gauges in
  if gc <> [] then begin
    Fmt.pf ppf "== gc ==@.";
    List.iter (fun (k, v) -> Fmt.pf ppf "  %-24s %16.0f@." k v) gc
  end

let pp_critical_paths ppf spans =
  let kids = children spans in
  let jobs = List.filter (fun (s : Schema.span) -> s.name = "engine.job") spans in
  if jobs <> [] then begin
    Fmt.pf ppf "== critical path per job ==@.";
    List.iter
      (fun (job : Schema.span) ->
        let rec chain (s : Schema.span) acc =
          match Hashtbl.find_opt kids s.id with
          | None | Some [] -> List.rev (s :: acc)
          | Some (first :: rest) ->
              let widest =
                List.fold_left
                  (fun (best : Schema.span) (k : Schema.span) ->
                    if Int64.compare k.dur_ns best.dur_ns > 0 then k else best)
                  first rest
              in
              chain widest (s :: acc)
        in
        let label =
          match job.trace with Some t -> t | None -> string_of_int job.id
        in
        Fmt.pf ppf "  %s:@." label;
        List.iter
          (fun (s : Schema.span) -> Fmt.pf ppf "    %a  %s@." pp_ns s.dur_ns s.name)
          (chain job []))
      jobs
  end

let pp_top_spans ppf ~top spans =
  if spans <> [] then begin
    Fmt.pf ppf "== top %d spans by duration ==@." top;
    let sorted =
      List.sort
        (fun (a : Schema.span) (b : Schema.span) -> Int64.compare b.dur_ns a.dur_ns)
        spans
    in
    List.iteri
      (fun i (s : Schema.span) ->
        if i < top then
          Fmt.pf ppf "  %a  %s%s@." pp_ns s.dur_ns s.path
            (match s.trace with Some t -> "  [" ^ t ^ "]" | None -> ""))
      sorted
  end

let render ?(top = 10) ppf tr =
  Fmt.pf ppf "trace report — schema %s, %d spans@." Schema.trace_v2
    (List.length tr.spans);
  (* A merged trace may carry several provenance records (the CLI
     header, then the engine's richer one); fold them with later
     fields overriding earlier ones. *)
  (match tr.provenance with
  | [] -> ()
  | records ->
      let merged =
        List.rev
          (List.fold_left
             (fun acc (k, v) ->
               (k, v) :: List.filter (fun (k2, _) -> k2 <> k) acc)
             [] (List.concat records))
      in
      pp_provenance ppf merged);
  Fmt.pf ppf "== per-phase time ==@.";
  pp_phase_table ppf (phase_rows tr);
  pp_critical_paths ppf tr.spans;
  pp_top_spans ppf ~top tr.spans;
  pp_gc ppf tr.gauges;
  if tr.counters <> [] then begin
    Fmt.pf ppf "== counters ==@.";
    List.iter (fun (k, v) -> Fmt.pf ppf "  %-44s %12d@." k v) tr.counters
  end
