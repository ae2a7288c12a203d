type scalar =
  | Int of int
  | Float of float
  | Text of string
  | Bool of bool

type t = (string * scalar) list

let pp_scalar ppf = function
  | Int i -> Format.fprintf ppf "%d" i
  | Float f -> Format.fprintf ppf "%g" f
  | Text s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.fprintf ppf "%b" b

let pp ppf row =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s = %a" k pp_scalar v))
    row

let find row field = List.assoc_opt field row

let int_exn row field =
  match find row field with Some (Int i) -> i | _ -> raise Not_found

let float_exn row field =
  match find row field with Some (Float f) -> f | _ -> raise Not_found

let text_exn row field =
  match find row field with Some (Text s) -> s | _ -> raise Not_found

let bool_exn row field =
  match find row field with Some (Bool b) -> b | _ -> raise Not_found

let set row field v = (field, v) :: List.remove_assoc field row

let scalar_key = function
  | Int i -> Printf.sprintf "i%d" i
  | Float f -> Printf.sprintf "f%h" f
  | Text s -> "t" ^ s
  | Bool b -> if b then "b1" else "b0"

(* SQL comparison semantics: Int and Float compare numerically across types,
   everything else only within its own type. *)
let scalar_compare a b =
  match (a, b) with
  | Int x, Int y -> Some (compare x y)
  | Int x, Float y -> Some (Float.compare (float_of_int x) y)
  | Float x, Int y -> Some (Float.compare x (float_of_int y))
  | Float x, Float y -> Some (Float.compare x y)
  | Text x, Text y -> Some (String.compare x y)
  | Bool x, Bool y -> Some (Bool.compare x y)
  | (Int _ | Float _ | Text _ | Bool _), _ -> None

(* Map a float to 64 bits whose unsigned order matches numeric order: flip
   the sign bit of non-negatives, complement negatives. -0.0 is normalized
   to +0.0 first so numerically-equal floats encode equally. *)
let monotone_bits f =
  let f = if f = 0.0 then 0.0 else f in
  let bits = Int64.bits_of_float f in
  if Int64.compare bits 0L >= 0 then Int64.logxor bits Int64.min_int
  else Int64.lognot bits

(* Escape so the result never contains '\x00' (reserved as a separator in
   index keys) while preserving lexicographic order: images are
   0x00 -> 0x01 0x01, 0x01 -> 0x01 0x02, c -> c otherwise, which are
   mutually order-consistent and leave '\x00' strictly below any image. *)
let escape_text s =
  if String.for_all (fun c -> c > '\x01') s then s
  else begin
    let buf = Buffer.create (String.length s + 4) in
    String.iter
      (fun c ->
        match c with
        | '\x00' -> Buffer.add_string buf "\x01\x01"
        | '\x01' -> Buffer.add_string buf "\x01\x02"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

let order_key v =
  match v with
  | Bool b -> if b then "b1" else "b0"
  | Int i -> Printf.sprintf "n%016Lx" (monotone_bits (float_of_int i))
  | Float f -> Printf.sprintf "n%016Lx" (monotone_bits f)
  | Text s -> "s" ^ escape_text s

let order_tag = function Bool _ -> 'b' | Int _ | Float _ -> 'n' | Text _ -> 's'

(* Codec: [count] then per field [tag; name; payload], each string
   length-prefixed with a decimal length and ':'. Human-debuggable and has no
   escaping pitfalls. *)

let encode_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let encode row =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int (List.length row));
  Buffer.add_char buf ';';
  List.iter
    (fun (name, v) ->
      let tag, payload =
        match v with
        | Int i -> ('i', string_of_int i)
        | Float f -> ('f', Printf.sprintf "%h" f)
        | Text s -> ('t', s)
        | Bool b -> ('b', if b then "1" else "0")
      in
      Buffer.add_char buf tag;
      encode_string buf name;
      encode_string buf payload)
    row;
  Buffer.contents buf

exception Malformed of string

let decode s =
  let pos = ref 0 in
  let fail msg = raise (Malformed msg) in
  let read_until ch =
    match String.index_from_opt s !pos ch with
    | None -> fail "missing delimiter"
    | Some i ->
      let sub = String.sub s !pos (i - !pos) in
      pos := i + 1;
      sub
  in
  let read_int_until ch =
    match int_of_string_opt (read_until ch) with
    | Some i -> i
    | None -> fail "bad length"
  in
  let read_string () =
    let len = read_int_until ':' in
    if len < 0 || !pos + len > String.length s then fail "bad string length";
    let sub = String.sub s !pos len in
    pos := !pos + len;
    sub
  in
  let read_field () =
    if !pos >= String.length s then fail "truncated field";
    let tag = s.[!pos] in
    incr pos;
    let name = read_string () in
    let payload = read_string () in
    let v =
      match tag with
      | 'i' -> (
        match int_of_string_opt payload with
        | Some i -> Int i
        | None -> fail "bad int")
      | 'f' -> (
        match float_of_string_opt payload with
        | Some f -> Float f
        | None -> fail "bad float")
      | 't' -> Text payload
      | 'b' -> Bool (payload = "1")
      | _ -> fail "unknown tag"
    in
    (name, v)
  in
  try
    let count = read_int_until ';' in
    if count < 0 then fail "negative count";
    let fields = List.init count (fun _ -> read_field ()) in
    if !pos <> String.length s then fail "trailing bytes";
    fields
  with Malformed msg -> failwith ("Row.decode: " ^ msg)
