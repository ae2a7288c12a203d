type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape buf s =
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

let number f =
  if Float.is_finite f then
    let s = Printf.sprintf "%.12g" f in
    s
  else "null"

(* --- Parser ----------------------------------------------------------------- *)

exception Bad of string

type cursor = { src : string; mutable pos : int }

let error cur msg = raise (Bad (Printf.sprintf "%s at offset %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let live = ref true in
  while !live do
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') -> advance cur
    | Some _ | None -> live := false
  done

let expect cur c =
  match peek cur with
  | Some got when got = c -> advance cur
  | Some got -> error cur (Printf.sprintf "expected %c, found %c" c got)
  | None -> error cur (Printf.sprintf "expected %c, found end of input" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | None -> error cur "unterminated escape"
      | Some c ->
        advance cur;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if cur.pos + 4 > String.length cur.src then
            error cur "truncated \\u escape";
          let hex = String.sub cur.src cur.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> error cur "bad \\u escape"
          in
          cur.pos <- cur.pos + 4;
          (* Non-ASCII code points are replaced: the exporters only ever
             escape control characters, so fidelity beyond ASCII is not
             needed for validation. *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else Buffer.add_char buf '?'
        | c -> error cur (Printf.sprintf "bad escape \\%c" c));
        loop ())
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let numeric = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> numeric c | None -> false) do
    advance cur
  done;
  let s = String.sub cur.src start (cur.pos - start) in
  match float_of_string_opt s with
  | Some f -> f
  | None -> error cur (Printf.sprintf "bad number %S" s)

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws cur;
        let name = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur in
        fields := (name, v) :: !fields;
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          members ()
        | _ -> expect cur '}'
      in
      members ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      Arr []
    end
    else begin
      let items = ref [] in
      let rec elements () =
        let v = parse_value cur in
        items := v :: !items;
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          elements ()
        | _ -> expect cur ']'
      in
      elements ();
      Arr (List.rev !items)
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse s =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos = String.length s then Ok v
    else Error (Printf.sprintf "trailing garbage at offset %d" cur.pos)
  | exception Bad msg -> Error msg

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number f)
  | Str s -> escape buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf name;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let write_file ~file j =
  Fsutil.ensure_parent file;
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (to_string j);
      output_char oc '\n')

let rec sort_keys = function
  | (Null | Bool _ | Num _ | Str _) as v -> v
  | Arr items -> Arr (List.map sort_keys items)
  | Obj fields ->
    Obj
      (List.map (fun (name, v) -> (name, sort_keys v)) fields
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
