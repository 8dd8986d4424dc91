/* lulesh (HeCBench) -- proxy application that simulates shock
 * hydrodynamics on a reduced 1-D mesh.
 *
 * Fifteen kernels per time step implement the Lagrangian leapfrog:
 * stress integration, hourglass forces, acceleration, boundary
 * conditions, velocity/position advance, kinematics, the monotonic Q
 * gradient/region pair, the EOS chain, volume update and sound speed.
 * Everything stays device-resident across the whole stepping loop; the
 * host only reads results after the final step.  Unoptimized variant:
 * implicit mappings only.
 */
#define NEL 64
#define STEPS 10
#define DT 0.002

double x[NEL];
double y[NEL];
double z[NEL];
double xd[NEL];
double yd[NEL];
double zd[NEL];
double xdd[NEL];
double ydd[NEL];
double zdd[NEL];
double fx[NEL];
double fy[NEL];
double fz[NEL];
double nodalMass[NEL];
double e[NEL];
double p[NEL];
double q[NEL];
double v[NEL];
double volo[NEL];
double delv[NEL];
double vdov[NEL];
double arealg[NEL];
double ss[NEL];
double elemMass[NEL];
double dxx[NEL];
double dyy[NEL];
double dzz[NEL];
double delv_xi[NEL];
double delv_eta[NEL];
double delv_zeta[NEL];
double delx_xi[NEL];
double delx_eta[NEL];
double delx_zeta[NEL];
double ql[NEL];
double qq[NEL];
double e_old[NEL];
double p_old[NEL];
double q_old[NEL];
double compression[NEL];
double compHalfStep[NEL];
double work[NEL];
double bvc[NEL];
double pbvc[NEL];
double e_new[NEL];
double p_new[NEL];
double q_new[NEL];
double vnew[NEL];
double sigxx[NEL];
double sigyy[NEL];
double sigzz[NEL];
double determ[NEL];

int main() {
  for (int i = 0; i < NEL; i++) {
    x[i] = i * 1.0;
    y[i] = i * 0.5;
    z[i] = i * 0.25;
    xd[i] = ((i % 5) - 2) * 0.01;
    yd[i] = ((i % 3) - 1) * 0.02;
    zd[i] = ((i % 7) - 3) * 0.005;
    xdd[i] = 0.0;
    ydd[i] = 0.0;
    zdd[i] = 0.0;
    fx[i] = 0.0;
    fy[i] = 0.0;
    fz[i] = 0.0;
    nodalMass[i] = 1.0 + (i % 4) * 0.25;
    e[i] = (i == 0) ? 100.0 : 0.0;
    p[i] = 0.0;
    q[i] = 0.0;
    v[i] = 1.0;
    volo[i] = 1.0;
    delv[i] = 0.0;
    vdov[i] = 0.0;
    arealg[i] = 1.0;
    ss[i] = 0.0;
    elemMass[i] = 1.0;
    dxx[i] = 0.0;
    dyy[i] = 0.0;
    dzz[i] = 0.0;
    delv_xi[i] = 0.0;
    delv_eta[i] = 0.0;
    delv_zeta[i] = 0.0;
    delx_xi[i] = 0.0;
    delx_eta[i] = 0.0;
    delx_zeta[i] = 0.0;
    ql[i] = 0.0;
    qq[i] = 0.0;
    e_old[i] = 0.0;
    p_old[i] = 0.0;
    q_old[i] = 0.0;
    compression[i] = 0.0;
    compHalfStep[i] = 0.0;
    work[i] = 0.0;
    bvc[i] = 0.0;
    pbvc[i] = 0.0;
    e_new[i] = 0.0;
    p_new[i] = 0.0;
    q_new[i] = 0.0;
    vnew[i] = 0.0;
    sigxx[i] = 0.0;
    sigyy[i] = 0.0;
    sigzz[i] = 0.0;
    determ[i] = 0.0;
  }
  for (int step = 0; step < STEPS; step++) {
    /* 1. InitStressTermsForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      sigxx[i] = -p[i] - q[i];
      sigyy[i] = -p[i] - q[i];
      sigzz[i] = -p[i] - q[i];
    }
    /* 2. IntegrateStressForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      determ[i] = volo[i] * v[i];
      fx[i] = sigxx[i] * determ[i];
      fy[i] = sigyy[i] * determ[i];
      fz[i] = sigzz[i] * determ[i];
    }
    /* 3. CalcFBHourglassForceForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      fx[i] += 0.03 * elemMass[i] * xd[i];
      fy[i] += 0.03 * elemMass[i] * yd[i];
      fz[i] += 0.03 * elemMass[i] * zd[i];
    }
    /* 4. CalcAccelerationForNodes */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      xdd[i] = fx[i] / nodalMass[i];
      ydd[i] = fy[i] / nodalMass[i];
      zdd[i] = fz[i] / nodalMass[i];
    }
    /* 5. ApplyAccelerationBoundaryConditions */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 1; i++) {
      xdd[i] = 0.0;
      ydd[i] = 0.0;
      zdd[i] = 0.0;
    }
    /* 6. CalcVelocityForNodes */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      xd[i] += xdd[i] * DT;
      yd[i] += ydd[i] * DT;
      zd[i] += zdd[i] * DT;
    }
    /* 7. CalcPositionForNodes */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      x[i] += xd[i] * DT;
      y[i] += yd[i] * DT;
      z[i] += zd[i] * DT;
    }
    /* 8. CalcKinematicsForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      dxx[i] = xd[i] * 0.01;
      dyy[i] = yd[i] * 0.01;
      dzz[i] = zd[i] * 0.01;
      vdov[i] = dxx[i] + dyy[i] + dzz[i];
      vnew[i] = v[i] * (1.0 + vdov[i] * DT);
      delv[i] = vnew[i] - v[i];
      arealg[i] = 1.0 + 0.1 * vdov[i];
    }
    /* 9. CalcMonotonicQGradientsForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      int ip = (i == NEL - 1) ? i : (i + 1);
      delv_xi[i] = xd[ip] - xd[i];
      delv_eta[i] = yd[ip] - yd[i];
      delv_zeta[i] = zd[ip] - zd[i];
      delx_xi[i] = x[ip] - x[i] + 1.0;
      delx_eta[i] = y[ip] - y[i] + 1.0;
      delx_zeta[i] = z[ip] - z[i] + 1.0;
    }
    /* 10. CalcMonotonicQRegionForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      double gradsum = delv_xi[i] / delx_xi[i] + delv_eta[i] / delx_eta[i]
          + delv_zeta[i] / delx_zeta[i];
      ql[i] = 0.5 * gradsum * arealg[i];
      qq[i] = 0.25 * gradsum * gradsum * elemMass[i];
    }
    /* 11. EvalEOSForElems: save state and compressions */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      e_old[i] = e[i];
      p_old[i] = p[i];
      q_old[i] = q[i];
      compression[i] = 1.0 / (vnew[i] + 0.0001) - 1.0;
      compHalfStep[i] = 0.5 * (compression[i] + 1.0 / (v[i] + 0.0001) - 1.0);
      work[i] = 0.0;
    }
    /* 12. CalcEnergyForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      e_new[i] = e_old[i] - 0.5 * delv[i] * (p_old[i] + q_old[i])
          + 0.5 * work[i];
      bvc[i] = 0.3 * (compHalfStep[i] + 1.0);
      pbvc[i] = 0.3;
    }
    /* 13. CalcPressureForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      p_new[i] = bvc[i] * e_new[i];
      q_new[i] = qq[i] + ql[i] * 0.1;
    }
    /* 14. UpdateVolumesForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      v[i] = vnew[i];
      e[i] = e_new[i];
      p[i] = p_new[i];
      q[i] = q_new[i];
    }
    /* 15. CalcSoundSpeedForElems */
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < NEL; i++) {
      double ssc = pbvc[i] * e_new[i]
          + vnew[i] * vnew[i] * bvc[i] * p_new[i];
      ss[i] = ssc / elemMass[i] + 0.01 * determ[i];
    }
  }
  double energy = 0.0;
  double momentum = 0.0;
  for (int i = 0; i < NEL; i++) {
    energy += e[i];
    momentum += xd[i] + yd[i] + zd[i];
  }
  printf("lulesh energy %.6f momentum %.6f origin %.6f\n",
         energy, momentum, x[0]);
  return 0;
}
