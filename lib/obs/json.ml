(* A deliberately small JSON value type, printer and parser — enough to
   emit traces, result records and reports and to parse them back for
   validation and reporting, without an external dependency.  Extracted from the Obs
   main module so that sibling modules (Report) can share it; external
   code keeps using it as [Obs.Json]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_to_string f)
      else Buffer.add_string buf "null"
  | Str s -> escape_to buf s
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

exception Parse_error of string

(* Recursive-descent parser over the input string. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ word)
  in
  let add_utf8 buf code =
    (* Encode one Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | Some code -> add_utf8 buf code
                   | None -> fail "bad \\u escape");
                   pos := !pos + 4
               | _ -> fail "unknown escape");
            go ()
        | c -> Buffer.add_char buf c; advance (); go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let lexeme = String.sub s start (!pos - start) in
    let floaty = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lexeme in
    if floaty then
      match float_of_string_opt lexeme with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt lexeme with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None

let get_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let get_str = function Str s -> Some s | _ -> None

let get_bool = function Bool b -> Some b | _ -> None
let get_obj = function Obj fields -> Some fields | _ -> None

let get_arr get = function
  | Arr items ->
      let got = List.filter_map get items in
      if List.compare_lengths got items = 0 then Some got else None
  | _ -> None

let get_enum names v =
  Option.bind (get_str v) (fun s -> List.assoc_opt s names)

(* ---- reading documents --------------------------------------------------- *)

(* The value an error names, cut short so a message stays one line. *)
let describe v =
  let s = to_string v in
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

let field name get j =
  match member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match get v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "field %S is %s" name (describe v)))

let optional name get j =
  match member name j with
  | None | Some Null -> Ok None
  | Some _ -> Result.map Option.some (field name get j)

let schema ~expected j =
  match member "schema" j with
  | Some (Str s) when String.equal s expected -> Ok ()
  | None ->
      Error (Printf.sprintf "missing field \"schema\" (expected %S)" expected)
  | Some v ->
      Error
        (Printf.sprintf "unsupported schema %s (expected %S)" (describe v)
           expected)
