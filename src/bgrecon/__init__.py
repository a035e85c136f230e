"""Backus-Gilbert reconstruction for moment problems and an elliptic
Cauchy problem on an annulus."""
