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

let rec digits n acc = if n = 0 then acc else digits (n / 10) (acc + 1)

(* Writes the last decimal digit of [n], which must not be positive, at
   [i]. *)
let set_digit b i n = Bytes.unsafe_set b i (Char.unsafe_chr (48 - (n mod 10)))

let index params rng =
  let n = params.Params.key_space in
  if params.Params.key_skew > 0. then Rng.zipf rng ~n ~s:params.Params.key_skew - 1
  else Rng.uniform rng ~lo:0 ~hi:(n - 1)

let key params rng = Lsr_storage.Mvcc.key_name (index params rng)

(* ["v" ^ Int64.to_string x] as one string. [x] splits into two ints
   around 10^10 that keep its sign, and digits are taken from the negative
   side so [Int64.min_int] needs no special case. *)
let fresh_value rng =
  let x = Rng.bits64 rng in
  let hi = Int64.to_int (Int64.div x 10_000_000_000L)
  and lo = Int64.to_int (Int64.rem x 10_000_000_000L) in
  let sign = if hi < 0 || lo < 0 then 1 else 0 in
  let hi = if sign = 1 then hi else -hi and lo = if sign = 1 then lo else -lo in
  let len = 1 + sign + if hi = 0 then max 1 (digits lo 0) else 10 + digits hi 0 in
  let b = Bytes.create len in
  Bytes.unsafe_set b 0 'v';
  if sign = 1 then Bytes.unsafe_set b 1 '-';
  (* The low ten digits, zero-padded when [hi] follows, then [hi]'s. *)
  let n = ref lo in
  for i = len - 1 downto 1 + sign do
    if i = len - 11 then n := hi;
    set_digit b i !n;
    n := !n / 10
  done;
  Bytes.unsafe_to_string b

let update_ops params rng size =
  let ops =
    List.init size (fun _ ->
        if Rng.bernoulli rng ~p:params.Params.update_op_prob then
          Write_op (key params rng, fresh_value rng)
        else Read_op (key params rng))
  in
  (* Guarantee at least one write, else this is a read-only transaction in
     disguise and would skew the routed mix. *)
  if List.exists (function Write_op _ -> true | Read_op _ -> false) ops then ops
  else
    match ops with
    | Read_op k :: rest -> Write_op (k, fresh_value rng) :: rest
    | (Write_op _ :: _ | []) -> ops

let size params rng =
  Rng.uniform rng ~lo:params.Params.tran_size_min ~hi:params.Params.tran_size_max

type draw =
  | Reads of { size : int; keys : Rng.t }
  | Updates of op list

let draw params rng =
  let size = size params rng in
  if Rng.bernoulli rng ~p:params.Params.update_tran_prob then
    Updates (update_ops params rng size)
  else begin
    let keys = Rng.copy rng in
    Rng.skip rng size;
    Reads { size; keys }
  end

let generate params rng =
  match draw params rng with
  | Updates ops -> { kind = Update; ops }
  | Reads { size; keys } ->
    { kind = Read_only; ops = List.init size (fun _ -> Read_op (key params keys)) }

let is_update spec = match spec.kind with Update -> true | Read_only -> false
