(* Trace analytics: turn a JSONL span trace (schema hypartition-trace/2,
   whose merged timeline carries per-span trace ids and provenance
   records) into the tables a human asks for first — where did the time
   go (per-phase wall and self time), what was the longest dependency
   chain per job, which individual spans dominated, what did the GC do —
   plus folded-stack output consumable by standard flamegraph tooling.

   This module does not depend on the Obs main module (the library is
   wrapped; siblings share Json and Schema instead), so the main module
   can re-export it. *)

type phase_row = {
  ph_path : string;
  ph_count : int;
  ph_total_ns : int64;
  ph_self_ns : int64;
}

type span = {
  sp_id : int;
  sp_parent : int; (* -1 for roots *)
  sp_name : string;
  sp_path : string;
  sp_dur_ns : int64;
  sp_trace : string option;
}

type t = {
  tr_schema : string;
  tr_spans : span list; (* file order: children precede parents *)
  tr_counters : (string * int) list;
  tr_gauges : (string * float) list;
  tr_provenance : (string * Json.t) list list;
}

let schema tr = tr.tr_schema

(* ------------------------------------------------------------------ *)
(* Parsing *)

let field name get j = Option.bind (Json.member name j) get

let span_of_json j =
  match
    ( field "id" Json.get_int j,
      field "name" Json.get_str j,
      field "path" Json.get_str j,
      field "depth" Json.get_int j,
      field "start_ns" Json.get_int j,
      field "dur_ns" Json.get_int j )
  with
  | Some id, Some name, Some path, Some _depth, Some _start_ns, Some dur_ns ->
      Some
        {
          sp_id = id;
          sp_parent =
            (match field "parent" Json.get_int j with
            | Some p -> p
            | None -> -1);
          sp_name = name;
          sp_path = path;
          sp_dur_ns = Int64.of_int dur_ns;
          sp_trace = field "trace" Json.get_str j;
        }
  | _ -> None

let load_string content =
  let records =
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else match Json.parse line with Ok v -> Some v | Error _ -> None)
      (String.split_on_char '\n' content)
  in
  let typ j = field "type" Json.get_str j in
  match List.find_opt (fun j -> typ j = Some "meta") records with
  | None -> Error "trace has no meta record"
  | Some meta -> (
      match field "schema" Json.get_str meta with
      | None -> Error "trace meta has no schema"
      | Some s when s <> Schema.trace_v2 ->
          Error (Printf.sprintf "unsupported trace schema %s" s)
      | Some s ->
          let spans =
            List.filter_map
              (fun j -> if typ j = Some "span" then span_of_json j else None)
              records
          in
          let named get j =
            match (field "name" Json.get_str j, field "value" get j) with
            | Some name, Some v -> Some (name, v)
            | _ -> None
          in
          let counters =
            List.filter_map
              (fun j ->
                if typ j = Some "counter" then named Json.get_int j else None)
              records
          in
          let gauges =
            List.filter_map
              (fun j ->
                if typ j = Some "gauge" then named Json.get_float j else None)
              records
          in
          let provenance =
            List.filter_map
              (fun j ->
                match (typ j, j) with
                | Some "provenance", Json.Obj fields ->
                    Some (List.filter (fun (k, _) -> k <> "type") fields)
                | _ -> None)
              records
          in
          Ok
            {
              tr_schema = s;
              tr_spans = spans;
              tr_counters = counters;
              tr_gauges = gauges;
              tr_provenance = provenance;
            })

let load path =
  match
    In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)
  with
  | content -> load_string content
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Derived views *)

let phase_rows tr =
  let child_sum : (int, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then begin
        let prev =
          match Hashtbl.find_opt child_sum s.sp_parent with
          | Some v -> v
          | None -> 0L
        in
        Hashtbl.replace child_sum s.sp_parent (Int64.add prev s.sp_dur_ns)
      end)
    tr.tr_spans;
  let agg : (string, int * int64 * int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids =
        match Hashtbl.find_opt child_sum s.sp_id with Some v -> v | None -> 0L
      in
      let self = Int64.sub s.sp_dur_ns kids in
      let self = if Int64.compare self 0L < 0 then 0L else self in
      let count, total, self_acc =
        match Hashtbl.find_opt agg s.sp_path with
        | Some row -> row
        | None -> (0, 0L, 0L)
      in
      Hashtbl.replace agg s.sp_path
        (count + 1, Int64.add total s.sp_dur_ns, Int64.add self_acc self))
    tr.tr_spans;
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
   interleaving was. *)
let structure tr =
  let children : (int, span list) Hashtbl.t = Hashtbl.create 64 in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace ids s.sp_id ()) tr.tr_spans;
  let roots =
    List.filter
      (fun s ->
        if s.sp_parent >= 0 && Hashtbl.mem ids s.sp_parent then begin
          let siblings =
            match Hashtbl.find_opt children s.sp_parent with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace children s.sp_parent (s :: siblings);
          false
        end
        else true)
      tr.tr_spans
  in
  let visiting = Hashtbl.create 16 in
  let rec canon s =
    if Hashtbl.mem visiting s.sp_id then "<cycle>"
    else begin
      Hashtbl.replace visiting s.sp_id ();
      let label =
        match s.sp_trace with
        | Some t -> s.sp_name ^ "[" ^ t ^ "]"
        | None -> s.sp_name
      in
      let kids =
        match Hashtbl.find_opt children s.sp_id with
        | Some l -> List.sort String.compare (List.map canon l)
        | None -> []
      in
      Hashtbl.remove visiting s.sp_id;
      match kids with
      | [] -> label
      | _ -> label ^ "(" ^ String.concat "," kids ^ ")"
    end
  in
  String.concat "\n" (List.sort String.compare (List.map canon roots))

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
  let children : (int, span list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then begin
        let siblings =
          match Hashtbl.find_opt children s.sp_parent with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace children s.sp_parent (s :: siblings)
      end)
    spans;
  let jobs = List.filter (fun s -> s.sp_name = "engine.job") spans in
  if jobs <> [] then begin
    Fmt.pf ppf "== critical path per job ==@.";
    List.iter
      (fun job ->
        let rec chain s acc =
          match Hashtbl.find_opt children s.sp_id with
          | None | Some [] -> List.rev (s :: acc)
          | Some kids ->
              let widest =
                List.fold_left
                  (fun best k ->
                    if Int64.compare k.sp_dur_ns best.sp_dur_ns > 0 then k
                    else best)
                  (List.hd kids) (List.tl kids)
              in
              chain widest (s :: acc)
        in
        let steps = chain job [] in
        let label =
          match job.sp_trace with Some t -> t | None -> string_of_int job.sp_id
        in
        Fmt.pf ppf "  %s:@." label;
        List.iter
          (fun s -> Fmt.pf ppf "    %a  %s@." pp_ns s.sp_dur_ns s.sp_name)
          steps)
      jobs
  end

let pp_top_spans ppf ~top spans =
  if spans <> [] then begin
    Fmt.pf ppf "== top %d spans by duration ==@." top;
    let sorted =
      List.sort (fun a b -> Int64.compare b.sp_dur_ns a.sp_dur_ns) spans
    in
    List.iteri
      (fun i s ->
        if i < top then
          Fmt.pf ppf "  %a  %s%s@." pp_ns s.sp_dur_ns s.sp_path
            (match s.sp_trace with
            | Some t -> "  [" ^ t ^ "]"
            | None -> ""))
      sorted
  end

let render ?(top = 10) ppf tr =
  Fmt.pf ppf "trace report — schema %s, %d spans@." tr.tr_schema
    (List.length tr.tr_spans);
  (* A merged trace may carry several provenance records (the CLI
     header, then the engine's richer one); fold them with later
     fields overriding earlier ones. *)
  (match tr.tr_provenance with
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
  pp_critical_paths ppf tr.tr_spans;
  pp_top_spans ppf ~top tr.tr_spans;
  pp_gc ppf tr.tr_gauges;
  if tr.tr_counters <> [] then begin
    Fmt.pf ppf "== counters ==@.";
    List.iter
      (fun (k, v) -> Fmt.pf ppf "  %-44s %12d@." k v)
      tr.tr_counters
  end
