open Lsr_sim

type op =
  | Read_op of string
  | Write_op of string * string

type kind =
  | Read_only
  | Update

type spec = {
  kind : kind;
  ops : op list;
}

(* [Printf.sprintf "item:%06d" idx], byte for byte, without the format
   interpreter: at least six digits, zero-padded after any sign. Digits are
   taken from the negative side so [min_int] needs no special case. *)
let key_name idx =
  let rec digits n acc = if n = 0 then acc else digits (n / 10) (acc + 1) in
  let sign = if idx < 0 then 1 else 0 in
  let width = max 6 (sign + max 1 (digits idx 0)) in
  let b = Bytes.make (5 + width) '0' in
  Bytes.blit_string "item:" 0 b 0 5;
  if sign = 1 then Bytes.set b 5 '-';
  let rec fill n i =
    if n <> 0 then begin
      Bytes.set b i (Char.unsafe_chr (48 - (n mod 10)));
      fill (n / 10) (i - 1)
    end
  in
  fill (if idx > 0 then -idx else idx) (4 + width);
  Bytes.unsafe_to_string b

let key params rng =
  let n = params.Params.key_space in
  let idx =
    if params.Params.key_skew > 0. then
      Rng.zipf rng ~n ~s:params.Params.key_skew - 1
    else Rng.uniform rng ~lo:0 ~hi:(n - 1)
  in
  key_name idx

let fresh_value rng = "v" ^ Int64.to_string (Rng.bits64 rng)

let generate params rng =
  let size =
    Rng.uniform rng ~lo:params.Params.tran_size_min ~hi:params.Params.tran_size_max
  in
  let is_update = Rng.bernoulli rng ~p:params.Params.update_tran_prob in
  if not is_update then
    { kind = Read_only; ops = List.init size (fun _ -> Read_op (key params rng)) }
  else begin
    let ops =
      List.init size (fun _ ->
          if Rng.bernoulli rng ~p:params.Params.update_op_prob then
            Write_op (key params rng, fresh_value rng)
          else Read_op (key params rng))
    in
    (* Guarantee at least one write, else this is a read-only transaction in
       disguise and would skew the routed mix. *)
    let ops =
      if List.exists (function Write_op _ -> true | Read_op _ -> false) ops then
        ops
      else
        match ops with
        | Read_op k :: rest -> Write_op (k, fresh_value rng) :: rest
        | (Write_op _ :: _ | []) -> ops
    in
    { kind = Update; ops }
  end

let is_update spec = match spec.kind with Update -> true | Read_only -> false
