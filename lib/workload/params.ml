type t = {
  num_secondaries : int;
  clients_per_secondary : int;
  think_time : float;
  session_time : float;
  update_tran_prob : float;
  abort_prob : float;
  tran_size_min : int;
  tran_size_max : int;
  op_service_time : float;
  update_op_prob : float;
  propagation_delay : float;
  propagation_jitter : float;
  warmup : float;
  duration : float;
  replications : int;
  response_time_cap : float;
  key_space : int;
  key_skew : float;
}

let default =
  {
    num_secondaries = 5;
    clients_per_secondary = 20;
    think_time = 7.0;
    session_time = 15. *. 60.;
    update_tran_prob = 0.20;
    abort_prob = 0.01;
    tran_size_min = 5;
    tran_size_max = 15;
    op_service_time = 0.02;
    update_op_prob = 0.30;
    propagation_delay = 10.0;
    propagation_jitter = 0.;
    warmup = 5. *. 60.;
    duration = 35. *. 60.;
    replications = 5;
    response_time_cap = 3.0;
    key_space = 100_000;
    key_skew = 0.;
  }

let browsing p = { p with update_tran_prob = 0.05 }

let quick p =
  { p with warmup = 2. *. 60.; duration = 10. *. 60.; replications = 3 }

let table1_rows p =
  [
    ("num_sec", "number of secondary sites", string_of_int p.num_secondaries);
    ( "num_clients",
      "number of clients",
      Printf.sprintf "%d/secondary" p.clients_per_secondary );
    ("think_time", "mean client think time", Printf.sprintf "%gs" p.think_time);
    ( "session_time",
      "mean session duration",
      Printf.sprintf "%g min." (p.session_time /. 60.) );
    ( "update_tran_prob",
      "probability of an update transaction",
      Printf.sprintf "%g%%" (100. *. p.update_tran_prob) );
    ( "abort_prob",
      "update transaction abort probability",
      Printf.sprintf "%g%%" (100. *. p.abort_prob) );
    ( "tran_size",
      "mean number of operations per transaction",
      string_of_int ((p.tran_size_min + p.tran_size_max) / 2) );
    ( "op_service_time",
      "service time per operation",
      Printf.sprintf "%gs" p.op_service_time );
    ( "update_op_prob",
      "probability of an update operation",
      Printf.sprintf "%g%%" (100. *. p.update_op_prob) );
    ( "propagation_delay",
      "propagator think time",
      Printf.sprintf "%gs" p.propagation_delay );
  ]
