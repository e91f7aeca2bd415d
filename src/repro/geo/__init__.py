"""Geographic substrate: coordinates, geohash, CSC, reports, verification.

Everything location-related that G-PBFT consumes lives here:

* :mod:`repro.geo.coords` -- validated latitude/longitude pairs, haversine
  distance, and rectangular deployment regions;
* :mod:`repro.geo.geohash` -- a complete base-32 geohash codec (encode,
  decode, bounding boxes);
* :mod:`repro.geo.csc` -- Crypto-Spatial Coordinates: the hierarchical
  (geohash, contract-address) pair from FOAM that the election table keys
  on (paper section III-B3);
* :mod:`repro.geo.reports` -- the ``<longitude, latitude, timestamp>``
  report format devices upload periodically (section II-C);
* :mod:`repro.geo.verification` -- neighbour-witness plausibility checks
  that back the paper's Sybil-resistance argument (section IV-A1);
* :mod:`repro.geo.index` -- a geohash-bucketed spatial index for
  witness discovery;
* :mod:`repro.geo.zones` -- rectangular zone partitions of the map for
  hierarchical (sharded) deployments.
"""
