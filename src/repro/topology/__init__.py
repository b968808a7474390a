"""Overlay-topology substrate: graphs, generators, clusters, instances."""
