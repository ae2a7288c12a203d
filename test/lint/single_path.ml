(* Single-path lint: every transaction's bookkeeping goes through
   [Lsr_core.Replica_set], and every pipeline stage through
   [Lsr_obs.Sinks.stage]. Fails when any other library module records into
   the history, drives watchdog tokens, or notes commits, reads, stages,
   crashes or recoveries in the flight recorder directly; and when any
   module but [Replica_set] runs the end-of-run verdict's checks, builds
   a fault channel, which the replica set owns per secondary, or reads
   freshness or lag off the commit clock, which it measures once per read
   and per refresh commit and hands to the driver's hooks. Every log
   record has a reader: only [Primary] creates a log, and only the two
   drivers, which know when no reader is left behind the propagation
   cursor, truncate it. The log has one writer and one reader: only
   [Mvcc] appends to it, and squashes a writeset, once per commit, into
   the commit record that is shipped as it is; only [Propagation] reads
   it. No simulated process is a fiber: every wait passes
   a continuation to [Resource.use], a [Seqcond] threshold queue or a
   timer, so no library module but [Process] itself names [Process] or
   [Effect]. A postmortem capture has two triggers: the watchdog's first
   alert and the simulator's failed checker battery. Only the two
   verdicts, [Checker] and [Watchdog], map a guarantee to the inversion
   level it forbids; everyone else reads their verdicts. A sample reaches
   a registry histogram from one place: the clients' samples from
   [Metrics], freshness and lag from [Replica_set], so no third module
   records the same sample again.

   Usage: single_path.exe FILE.ml... (the library sources). Comments and
   string literals are skipped. Exits 1 listing each offending call. *)

(* (modules allowed to make the calls, how to name them, the calls) *)
let rules =
  [
    ( [ "replica_set.ml"; "sinks.ml" ],
      "Replica_set / Lsr_obs.Sinks",
      [ "History.add"; "Watchdog.begin_"; "Watchdog.end_";
        "Flight.note_commit"; "Flight.note_read"; "Flight.note_stage";
        "Flight.note_crash"; "Flight.note_recovery" ] );
    ( [ "replica_set.ml" ],
      "Replica_set",
      [ "Checker.analyze"; "Checker.check_completeness";
        "Checker.same_state"; "Channel.create"; "Session.clock_freshness";
        "Session.clock_time_of" ] );
    ([ "primary.ml" ], "Primary", [ "Wal.create" ]);
    ([ "mvcc.ml" ], "Mvcc", [ "Wal.append"; "Wal.squash" ]);
    ([ "propagation.ml" ], "Propagation", [ "Wal.read_from" ]);
    ( [ "system.ml"; "sim_system.ml" ],
      "System / Sim_system",
      [ "Wal.truncate_before" ] );
    ([ "process.ml" ], "Process", [ "Process"; "Effect" ]);
    ( [ "watchdog.ml"; "sim_system.ml" ],
      "Watchdog / Sim_system",
      [ "Flight.trigger" ] );
    ( [ "checker.ml"; "watchdog.ml" ],
      "Checker / Watchdog",
      [ "Session.forbidden_level" ] );
    ( [ "metrics.ml"; "replica_set.ml" ],
      "Metrics / Replica_set",
      [ "Obs.observe" ] );
  ]

(* [src] with comments (nested) and string literals blanked out, newlines
   kept so line numbers survive. *)
let code_only src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if src.[i] <> '\n' then Bytes.set out i ' ' in
  let rec code i =
    if i < n then
      if src.[i] = '"' then string (i + 1)
      else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        comment 1 (i + 2)
      end
      else if i + 2 < n && src.[i] = '\'' && src.[i + 2] = '\'' then code (i + 3)
      else if i + 3 < n && src.[i] = '\'' && src.[i + 1] = '\\' then
        (* An escaped character literal: resume after its closing quote. *)
        match String.index_from_opt src (i + 3) '\'' with
        | Some j -> code (j + 1)
        | None -> ()
      else code (i + 1)
  and string i =
    if i < n then
      if src.[i] = '\\' && i + 1 < n then begin
        blank i;
        blank (i + 1);
        string (i + 2)
      end
      else if src.[i] = '"' then code (i + 1)
      else begin
        blank i;
        string (i + 1)
      end
  and comment depth i =
    if i < n then
      if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then begin
        blank i;
        blank (i + 1);
        if depth = 1 then code (i + 2) else comment (depth - 1) (i + 2)
      end
      else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then begin
        blank i;
        blank (i + 1);
        comment (depth + 1) (i + 2)
      end
      else begin
        blank i;
        comment depth (i + 1)
      end
  in
  code 0;
  Bytes.to_string out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Occurrences of [pat] in [line] as a qualified name: not preceded by an
   identifier character (so [Lsr_obs.Flight.note_read] matches, [MyHistory.add]
   does not), and, unless [pat] ends in [_], not followed by one. *)
let mentions line pat =
  let n = String.length line and m = String.length pat in
  let prefix = pat.[m - 1] = '_' in
  let rec at i =
    i + m <= n
    && ((String.sub line i m = pat
        && (i = 0 || not (is_ident_char line.[i - 1]))
        && (prefix || i + m = n || not (is_ident_char line.[i + m])))
       || at (i + 1))
  in
  at 0

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  let offences = ref 0 in
  List.iter
    (fun file ->
      let lines = String.split_on_char '\n' (code_only (read_file file)) in
      List.iter
        (fun (allowed, owner, forbidden) ->
          if not (List.mem (Filename.basename file) allowed) then
            List.iteri
              (fun i line ->
                List.iter
                  (fun pat ->
                    if mentions line pat then begin
                      incr offences;
                      Printf.printf "%s:%d: %s outside %s\n" file (i + 1) pat
                        owner
                    end)
                  forbidden)
              lines)
        rules)
    files;
  if !offences > 0 then exit 1
