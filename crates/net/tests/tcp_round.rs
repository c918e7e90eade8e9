//! A complete SecAgg+ round over real TCP sockets on localhost, with one
//! client disconnecting mid-round (the "killed client" scenario), and
//! the outcome checked against the expected survivor aggregate — and
//! against what every client saw: survivors hear the session end after
//! their one finished round, the killed client reports where it died.

use std::collections::BTreeMap;
use std::time::Duration;

use dordis_net::coordinator::{run_coordinator, CoordinatorConfig, DropKind};
use dordis_net::runtime::{
    ClientRunOutcome, FailAction, FailPoint, FailStage, SessionClientOptions, SessionEndKind,
};
use dordis_net::tcp::{TcpAcceptor, TcpChannel};
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

const BITS: u32 = 18;
const DIM: usize = 32;
const N: u32 = 7;

mod common;
use common::one_round_client;

fn input_for(id: ClientId) -> ClientInput {
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 1009 + i as u64 * 31) & ((1 << BITS) - 1))
            .collect(),
        noise_seeds: vec![[id as u8 + 1; 32]; 3],
    }
}

#[test]
fn tcp_secagg_plus_round_with_mid_round_kill() {
    let params = RoundParams {
        round: 3,
        clients: (0..N).collect(),
        threshold: 4,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: 2,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::harary_for(N as usize),
    };

    let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").expect("bind");
    let addr = dordis_net::transport::Acceptor::local_addr(&acceptor);

    let mut handles = Vec::new();
    for id in 0..N {
        let addr = addr.clone();
        // Client 2 "dies" just before sending its masked input.
        let fail = (id == 2).then_some(FailPoint {
            stage: FailStage::MaskedInput,
            action: FailAction::Disconnect,
        });
        handles.push(std::thread::spawn(move || {
            let mut chan = TcpChannel::connect(addr).expect("connect");
            let opts = SessionClientOptions {
                id,
                rng_seed: 9,
                recv_timeout: Duration::from_secs(30),
                silent_linger: Duration::from_secs(1),
            };
            one_round_client(&mut chan, &opts, fail, input_for(id), None)
        }));
    }

    let report = run_coordinator(
        &mut acceptor,
        &CoordinatorConfig::new(
            params,
            Duration::from_secs(15),
            Duration::from_secs(8),
            1,
            None,
        ),
    )
    .expect("coordinator");

    for (id, h) in (0..N).zip(handles) {
        let run = h.join().expect("thread").expect("client");
        if id == 2 {
            assert!(
                matches!(
                    run.end,
                    SessionEndKind::Failed {
                        round: 3,
                        stage: FailStage::MaskedInput
                    }
                ),
                "killed client: {:?}",
                run.end
            );
        } else {
            assert!(
                matches!(run.end, SessionEndKind::Ended),
                "client {id}: {:?}",
                run.end
            );
            assert_eq!(run.rounds.len(), 1, "client {id}: {:?}", run.rounds);
            assert!(
                matches!(run.rounds[0].outcome, ClientRunOutcome::Finished { .. }),
                "client {id}: {:?}",
                run.rounds
            );
        }
    }

    // Client 2 was detected (as a disconnect) and excluded.
    assert_eq!(report.outcome.dropped, vec![2]);
    assert!(report
        .dropouts
        .iter()
        .any(|d| d.client == 2 && d.kind == DropKind::Disconnected));

    // The aggregate is exactly the survivors' modular sum.
    let mut expected = vec![0u64; DIM];
    for &id in &report.outcome.survivors {
        for (e, v) in expected.iter_mut().zip(input_for(id).vector.iter()) {
            *e = (*e + *v) & ((1 << BITS) - 1);
        }
    }
    assert_eq!(report.outcome.sum, expected);

    // Traffic was actually measured on the wire.
    let adv = report.stats.stage("AdvertiseKeys").expect("stage stats");
    assert!(adv.uplink_total > 0 && adv.downlink_total > 0);

    // Noise seeds of every survivor were recovered for removal.
    let survivors: BTreeMap<ClientId, ()> = report
        .outcome
        .survivors
        .iter()
        .map(|&id| (id, ()))
        .collect();
    for (owner, k, _) in &report.outcome.removal_seeds {
        assert!(survivors.contains_key(owner));
        assert!(*k >= 1 && *k <= 2);
    }
}
