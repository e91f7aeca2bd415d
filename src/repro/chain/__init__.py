"""Blockchain substrate: transactions, blocks, genesis, ledger, mempool.

The paper's prototype is "a blockchain system with G-PBFT as consensus
protocol" (section V); this package is that blockchain, independent of
the consensus engine that orders its blocks:

* :mod:`repro.chain.transaction` -- normal transactions, carrying
  geographic information at the end of the body (section III-B2);
* :mod:`repro.chain.block` -- blocks with merkle-rooted headers;
* :mod:`repro.chain.genesis` -- the genesis block holding the initial
  endorser set and admittance policies (section III-C);
* :mod:`repro.chain.ledger` -- per-node chain storage with linkage
  validation and fork detection;
* :mod:`repro.chain.mempool` -- pending-transaction pool;
* :mod:`repro.chain.state` -- the key-value state machine transactions
  mutate.
"""
